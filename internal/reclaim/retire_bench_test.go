package reclaim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hp"
	"repro/internal/ibr"
	"repro/internal/mem"
	"repro/internal/reclaim"
)

// bnode is the payload retired by the reclamation benchmarks.
type bnode struct {
	val  uint64
	next uint64
}

const (
	benchThreads = 16
	benchSlots   = 3
)

// benchCfg is the construction configuration the retire benchmarks use.
// ScanR=1 scans once per 1*issued*3 retires since the last scan (the
// default rule); BENCH_retire.json's baseline was captured with the same
// workload under the older threshold 1*MaxThreads*3 = 48.
func benchCfg() reclaim.Config {
	return reclaim.Config{MaxThreads: benchThreads, Slots: benchSlots, ScanR: 1}
}

// retireSchemes are the era/pointer schemes whose retire/scan path this PR's
// amortization targets.
func retireSchemes() []struct {
	name string
	mk   func(a reclaim.Allocator) reclaim.Domain
} {
	return []struct {
		name string
		mk   func(a reclaim.Allocator) reclaim.Domain
	}{
		{"HE", func(a reclaim.Allocator) reclaim.Domain { return core.New(a, benchCfg()) }},
		{"HE-minmax", func(a reclaim.Allocator) reclaim.Domain { return core.New(a, benchCfg(), core.WithMinMax(true)) }},
		{"HP", func(a reclaim.Allocator) reclaim.Domain { return hp.New(a, benchCfg()) }},
		{"IBR", func(a reclaim.Allocator) reclaim.Domain { return ibr.New(a, benchCfg()) }},
	}
}

// BenchmarkRetireScan measures the retire-heavy path: every iteration
// allocates, stamps and retires one unprotected object, so throughput is
// dominated by the per-retire reclamation work (scan frequency x scan cost).
// Run with -cpu 8 for the headline 8-goroutine comparison.
func BenchmarkRetireScan(b *testing.B) {
	for _, s := range retireSchemes() {
		b.Run(s.name, func(b *testing.B) {
			arena := mem.NewArena[bnode]()
			d := s.mk(arena)
			b.RunParallel(func(pb *testing.PB) {
				h := d.Register()
				defer d.Unregister(h)
				for pb.Next() {
					ref, _ := arena.AllocAt(h.ID())
					d.OnAlloc(ref)
					d.Retire(h, ref)
				}
			})
			b.StopTimer()
			d.Drain()
		})
	}
}
