package reclaim_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
)

// obsModes toggles instrumentation for the overhead benchmarks: "off" is the
// nil-gated default every non-observed run takes (one untaken branch per
// wrapped call), "on" attaches a full obs domain (flight recorder, scan
// histogram, gauges; nothing is recorded per protect or per retire), and
// "trace" additionally enables per-ref lifecycle tracing at its default
// 1-in-1024 allocation sampling.
func obsModes() []struct {
	name string
	on   bool
	cfg  obs.Config
} {
	return []struct {
		name string
		on   bool
		cfg  obs.Config
	}{
		{"off", false, obs.Config{}},
		{"on", true, obs.Config{Sessions: benchThreads}},
		{"trace", true, obs.Config{Sessions: benchThreads, Trace: obs.TraceConfig{Enabled: true}}},
	}
}

func newObsBenchDomain(on bool, cfg obs.Config) (*mem.Arena[bnode], *core.Eras) {
	arena := mem.NewArena[bnode]()
	d := core.New(arena, benchCfg())
	if on {
		d.EnableObs(obs.NewDomain("HE", cfg))
	}
	return arena, d
}

// BenchmarkRetireScanObs measures the observability overhead on the
// retire-heavy path through the handle wrappers (the call path the
// structures use). Compare off/on: the acceptance target is <5% in the
// disabled mode against BenchmarkRetireScan/HE and a small single-digit
// overhead when enabled.
func BenchmarkRetireScanObs(b *testing.B) {
	for _, m := range obsModes() {
		b.Run(m.name, func(b *testing.B) {
			arena, d := newObsBenchDomain(m.on, m.cfg)
			b.RunParallel(func(pb *testing.PB) {
				h := d.Register()
				defer d.Unregister(h)
				for pb.Next() {
					ref, _ := arena.AllocAt(h.ID())
					d.OnAlloc(ref)
					h.Retire(ref)
				}
			})
			b.StopTimer()
			d.Drain()
		})
	}
}

// BenchmarkHandleOpsObs measures the observability overhead on the
// read-side dispatch path: one BeginOp/Protect/EndOp round per iteration.
func BenchmarkHandleOpsObs(b *testing.B) {
	for _, m := range obsModes() {
		b.Run(m.name, func(b *testing.B) {
			arena, d := newObsBenchDomain(m.on, m.cfg)
			b.RunParallel(func(pb *testing.PB) {
				h := d.Register()
				defer d.Unregister(h)
				ref, _ := arena.AllocAt(h.ID())
				d.OnAlloc(ref)
				var cell atomic.Uint64
				cell.Store(uint64(ref))
				for pb.Next() {
					h.BeginOp()
					h.Protect(0, &cell)
					h.EndOp()
				}
			})
		})
	}
}
