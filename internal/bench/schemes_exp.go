package bench

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/list"
	"repro/internal/mem"
	"repro/internal/reclaim"
	"repro/smr"
)

// This file is the roster throughput comparison behind BENCH_schemes.json:
// two per-primitive micro-workloads on the raw session Handle plus a
// structure-level list cell, run across every scheme in the roster. It is
// the harness's one slice-interleave method, shaped by the shared host this
// repo is measured on: the host's clock regime shifts on a scale of tens to
// hundreds of milliseconds and individual runs see ±15% spikes, so
// run-A-then-run-B comparisons are hopeless. Instead all fixtures are built
// once, then ~1ms timed slices rotate through the schemes for the whole run,
// so every scheme samples every clock regime and GC pause of the host in
// equal proportion and each cell's median discards the slices a preemption
// landed in. Per-scheme ratios (the rightmost column, normalized to HE) are
// what reproduces across runs; absolute ns/op carries the host's mood.

// rosterNode is the micro-benchmark node: one link word, like a list node
// with the key stripped.
type rosterNode struct {
	next atomic.Uint64
}

// rosterCfg mirrors the BenchmarkRetireScan configuration in
// internal/reclaim (MaxThreads=16, Slots=3, ScanR=1).
func rosterCfg() reclaim.Config {
	return reclaim.Config{MaxThreads: 16, Slots: 3, ScanR: 1}
}

// rosterSink defeats dead-code elimination of the protected loads.
var rosterSink uint64

// The timed loops live in their own noinline functions so nothing from the
// harness (in particular the 3-word time.Time of the surrounding stopwatch)
// is live across the loop body: keeping the stopwatch in the same frame
// costs spill reloads inside the loop, which bills harness noise to the
// scheme under test.

//go:noinline
func loopHandleOps(h *reclaim.Handle, cell *atomic.Uint64, iters int) uint64 {
	var acc uint64
	for i := 0; i < iters; i++ {
		h.BeginOp()
		acc += uint64(h.Protect(0, cell))
		h.EndOp()
	}
	return acc
}

//go:noinline
func loopRetireScan(arena *mem.Arena[rosterNode], dom reclaim.Domain, h *reclaim.Handle, iters int) {
	for i := 0; i < iters; i++ {
		ref, _ := arena.AllocAt(h.ID())
		dom.OnAlloc(ref)
		h.Retire(ref)
	}
}

// handleOpsFixture times one BeginOp / protected load / EndOp round on a
// private cell: the steady-state read-side cost of a scheme.
func handleOpsFixture(s Scheme) (func(int), func()) {
	arena := mem.NewArena[rosterNode](mem.WithShards[rosterNode](16))
	dom := s.Make(arena, rosterCfg())
	h := dom.Register()
	ref, _ := arena.AllocAt(h.ID())
	dom.OnAlloc(ref)
	cell := new(atomic.Uint64)
	cell.Store(uint64(ref))
	run := func(iters int) { rosterSink += loopHandleOps(h, cell, iters) }
	teardown := func() {
		h.Retire(ref)
		h.Unregister()
		dom.Drain()
	}
	return run, teardown
}

// retireScanFixture times allocate, publish and retire of one node: the
// retire path including the scans it triggers.
func retireScanFixture(s Scheme) (func(int), func()) {
	arena := mem.NewArena[rosterNode](mem.WithShards[rosterNode](16))
	dom := s.Make(arena, rosterCfg())
	h := dom.Register()
	run := func(iters int) { loopRetireScan(arena, dom, h, iters) }
	teardown := func() {
		h.Unregister()
		dom.Drain()
	}
	return run, teardown
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := xs[len(xs)/2]
	if len(xs)%2 == 0 {
		m = (m + xs[len(xs)/2-1]) / 2
	}
	return m
}

// rosterWorkload is one row-group of the schemes experiment: a fixture per
// scheme plus the roster it is meaningful for.
type rosterWorkload struct {
	name       string
	sliceIters int
	schemes    []Scheme
	fixture    func(s Scheme) (run func(iters int), teardown func())
}

// listOpsFixture builds a persistent 100-key Maged-Harris list under s and
// returns a runner doing a 90/10 lookup/update mix — the structure-level
// cost of a scheme (traversal protection + retirement on the update tail),
// as opposed to the isolated per-primitive costs of the other workloads.
func listOpsFixture(s Scheme) (func(int), func()) {
	const size = 100
	l := list.New(s.Make, list.WithMaxThreads(4))
	setup := l.Register()
	for k := uint64(0); k < size; k++ {
		l.Insert(setup, k, k)
	}
	setup.Unregister()
	g := l.Register()
	rng := NewSplitMix64(41)
	run := func(iters int) {
		for i := 0; i < iters; i++ {
			k := uint64(rng.Intn(size))
			if rng.Intn(100) < 10 {
				if l.Remove(g, k) {
					l.Insert(g, k, k)
				}
			} else if l.Contains(g, k) {
				rosterSink++
			}
		}
	}
	teardown := func() { g.Unregister() }
	return run, teardown
}

// schemesSlices is the number of timed slices per scheme per workload: the
// roster comparison reads at the 5-10% level (is WFE's announce overhead
// visible? is hyaline's retire cheaper than a scan?).
const schemesSlices = 400

// rosterMedians builds one fixture per scheme, rotates timed slices
// through all of them for `slices` rounds, and returns each scheme's
// median slice cost in ns/op. One untimed warmup slice per scheme fills
// magazines and branch history.
func rosterMedians(env Env, slices, sliceIters int, schemes []Scheme,
	fixture func(Scheme) (func(int), func())) []float64 {
	runs := make([]func(int), len(schemes))
	downs := make([]func(), len(schemes))
	samples := make([][]float64, len(schemes))
	for i, s := range schemes {
		runs[i], downs[i] = fixture(env.Wrap(s))
		runs[i](sliceIters)
		samples[i] = make([]float64, 0, slices)
	}
	perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(sliceIters) }
	for k := 0; k < slices; k++ {
		for i := range runs {
			t0 := time.Now()
			runs[i](sliceIters)
			samples[i] = append(samples[i], perOp(time.Since(t0)))
		}
	}
	meds := make([]float64, len(schemes))
	for i := range samples {
		meds[i] = median(samples[i])
		downs[i]()
	}
	return meds
}

// rosterWorkloads is the benchmark grid of SchemesCompare. RC is excluded
// from ListOps (RCUnsafe: unguarded refcount traversal is unsafe on the
// Harris list) and both baselines are excluded from RetireScan (NONE never
// frees, so a long run grows without bound; RC frees at release time, so
// its "retire" is not comparable work).
func rosterWorkloads() []rosterWorkload {
	var reclaiming, listSafe []Scheme
	for _, s := range smr.Schemes() {
		if s != smr.RC && s != smr.None {
			reclaiming = append(reclaiming, Of(s))
		}
		if s != smr.RC || !RCUnsafe("list") {
			listSafe = append(listSafe, Of(s))
		}
	}
	return []rosterWorkload{
		{"HandleOps", 30_000, AllSchemes(), handleOpsFixture},
		{"RetireScan", 15_000, reclaiming, retireScanFixture},
		{"ListOps", 3_000, listSafe, listOpsFixture},
	}
}

// SchemesCompare runs the roster throughput comparison; BENCH_schemes.json
// records a run. Ratios are normalized to HE — the paper's scheme is the
// repo's baseline, and the interesting questions are all relative to it
// (what does WFE's wait-freedom cost? what does hyaline's batch handoff
// save on the retire path?).
func SchemesCompare(w io.Writer, o Options) {
	o = o.defaulted()
	Section(w, "Scheme roster comparison (%d interleaved ~1ms slices per scheme per workload, 1 thread)", schemesSlices)
	t := NewTable("workload", "scheme", "ns/op", "vs HE")
	for _, rw := range rosterWorkloads() {
		meds := rosterMedians(o.Env, schemesSlices, rw.sliceIters, rw.schemes, rw.fixture)
		heNs := 0.0
		for i, s := range rw.schemes {
			if s.Name == "HE" {
				heNs = meds[i]
			}
		}
		for i, s := range rw.schemes {
			t.Row(rw.name, s.Name, meds[i], meds[i]/heNs)
		}
	}
	o.emit(w, t)
	fmt.Fprintln(w, "Slices rotate round-robin through all schemes over one long run, so every")
	fmt.Fprintln(w, "scheme samples the same clock regimes; each cell is that scheme's median")
	fmt.Fprintln(w, "slice. Read the 'vs HE' column — absolute ns/op carries the host's mood.")
	fmt.Fprintln(w, "RC is excluded from ListOps (unsafe on the Harris list) and RetireScan;")
	fmt.Fprintln(w, "NONE from RetireScan (never frees) and its ListOps row leaks by design.")
}
