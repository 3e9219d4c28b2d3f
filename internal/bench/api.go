package bench

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/mem"
	"repro/internal/reclaim"
	"repro/smr"
)

// This file is the public-vs-internal overhead A/B: the same two
// micro-workloads as internal/reclaim's BenchmarkHandleOps and
// BenchmarkRetireScan, once through the raw session Handle and once through
// the smr Guard/Atomic surface. The smr package's zero-overhead claim
// (DESIGN.md "Why Guard is a concrete struct") is held to the numbers this
// experiment prints; BENCH_api.json records a run.
//
// Methodology, shaped by the 1-core shared host this repo is measured on:
// the host's clock regime shifts on a scale of tens to hundreds of
// milliseconds and individual runs see ±15% spikes, so coarse
// run-A-then-run-B comparisons are hopeless. Instead each side is set up
// once and the two sides alternate ~1ms timed slices over one long run —
// thousands of alternations, so every frequency regime and every GC pause
// is sampled by both sides in equal proportion — and each cell reports the
// per-side median of slices. The median discards the slices a preemption
// or collection landed in; the fine interleave guarantees the surviving
// central mass of both distributions comes from the same machine states.

// apiNode is the micro-benchmark node: one link word, like a list node with
// the key stripped.
type apiNode struct {
	next smr.Atomic[apiNode]
}

// apiCfg mirrors the BenchmarkRetireScan configuration in internal/reclaim
// (MaxThreads=16, Slots=3, ScanR=1) so both sides run the same scan
// trigger.
func apiCfg() reclaim.Config {
	return reclaim.Config{MaxThreads: 16, Slots: 3, ScanR: 1}
}

// apiSink defeats dead-code elimination of the protected loads.
var apiSink uint64

// The timed loops live in their own noinline functions so nothing from the
// harness (in particular the 3-word time.Time of the surrounding stopwatch)
// is live across the loop body. Keeping the stopwatch in the same frame cost
// the Guard side three spill reloads per iteration — under the checks' extra
// register pressure the compiler reloaded the exit-path values inside the
// loop — which billed harness noise to the public column. noinline on both
// sides keeps the two frames identical in shape.

//go:noinline
func loopHandleOpsInternal(h *reclaim.Handle, cell *atomic.Uint64, iters int) uint64 {
	var acc uint64
	for i := 0; i < iters; i++ {
		h.BeginOp()
		acc += uint64(h.Protect(0, cell))
		h.EndOp()
	}
	return acc
}

//go:noinline
func loopHandleOpsPublic(g *smr.Guard, cell *smr.Atomic[apiNode], iters int) uint64 {
	var acc uint64
	for i := 0; i < iters; i++ {
		g.BeginOp()
		acc += uint64(cell.Load(g, 0).Ref())
		g.EndOp()
	}
	return acc
}

//go:noinline
func loopRetireScanInternal(arena *mem.Arena[apiNode], dom reclaim.Domain, h *reclaim.Handle, iters int) {
	for i := 0; i < iters; i++ {
		ref, _ := arena.AllocAt(h.ID())
		dom.OnAlloc(ref)
		h.Retire(ref)
	}
}

//go:noinline
func loopRetireScanPublic(d *smr.Domain[apiNode], g *smr.Guard, iters int) {
	for i := 0; i < iters; i++ {
		p, _ := d.Alloc(g)
		d.Publish(p.Ref())
		g.Retire(p.Ref())
	}
}

// apiWorkload is one benchmark cell's pair of sides: each fixture builds a
// side's state once and returns the slice runner plus its teardown.
// sliceIters is sized so a slice takes on the order of a millisecond —
// fine enough that the alternation outruns the host's frequency regimes.
type apiWorkload struct {
	name       string
	sliceIters int
	internal   func(s Scheme) (run func(iters int), teardown func())
	public     func(s Scheme) (run func(iters int), teardown func())
}

func handleOpsInternalFixture(s Scheme) (func(int), func()) {
	arena := mem.NewArena[apiNode](mem.WithShards[apiNode](16))
	dom := s.Make(arena, apiCfg())
	h := dom.Register()
	ref, _ := arena.AllocAt(h.ID())
	dom.OnAlloc(ref)
	cell := new(atomic.Uint64)
	cell.Store(uint64(ref))
	run := func(iters int) { apiSink += loopHandleOpsInternal(h, cell, iters) }
	teardown := func() {
		h.Retire(ref)
		h.Unregister()
		dom.Drain()
	}
	return run, teardown
}

func handleOpsPublicFixture(s Scheme) (func(int), func()) {
	d := smr.NewWith[apiNode](s.Make, apiCfg())
	g := d.Register()
	p, _ := d.Alloc(g)
	d.Publish(p.Ref())
	cell := new(smr.Atomic[apiNode])
	cell.Store(p)
	run := func(iters int) { apiSink += loopHandleOpsPublic(g, cell, iters) }
	teardown := func() {
		g.Retire(p.Ref())
		g.Unregister()
		d.Drain()
	}
	return run, teardown
}

func retireScanInternalFixture(s Scheme) (func(int), func()) {
	arena := mem.NewArena[apiNode](mem.WithShards[apiNode](16))
	dom := s.Make(arena, apiCfg())
	h := dom.Register()
	run := func(iters int) { loopRetireScanInternal(arena, dom, h, iters) }
	teardown := func() {
		h.Unregister()
		dom.Drain()
	}
	return run, teardown
}

func retireScanPublicFixture(s Scheme) (func(int), func()) {
	d := smr.NewWith[apiNode](s.Make, apiCfg())
	g := d.Register()
	run := func(iters int) { loopRetireScanPublic(d, g, iters) }
	teardown := func() {
		g.Unregister()
		d.Drain()
	}
	return run, teardown
}

// apiBenchmarks is the benchmark grid of APICompare: the two micro-workloads
// on the two pointer-based schemes the zero-overhead bar is set on.
var apiBenchmarks = []apiWorkload{
	{"HandleOps", 30_000, handleOpsInternalFixture, handleOpsPublicFixture},
	{"RetireScan", 15_000, retireScanInternalFixture, retireScanPublicFixture},
}

// apiSlices is the number of timed slices per side in "both" mode; with
// ~1ms slices one cell takes a few seconds.
const apiSlices = 1500

func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := xs[len(xs)/2]
	if len(xs)%2 == 0 {
		m = (m + xs[len(xs)/2-1]) / 2
	}
	return m
}

// abMedians alternates timed slices of the two sides over one long run and
// returns each side's median slice cost in ns/op. One warmup slice per side
// (magazine fill, branch history) runs untimed.
func abMedians(slices, sliceIters int, internal, public func(int)) (medInt, medPub float64) {
	perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(sliceIters) }
	internal(sliceIters)
	public(sliceIters)
	ti := make([]float64, 0, slices)
	tp := make([]float64, 0, slices)
	for k := 0; k < slices; k++ {
		t0 := time.Now()
		internal(sliceIters)
		ti = append(ti, perOp(time.Since(t0)))
		t0 = time.Now()
		public(sliceIters)
		tp = append(tp, perOp(time.Since(t0)))
	}
	return median(ti), median(tp)
}

// APICompare runs the public-vs-internal A/B. which selects the sides:
// "both" (the default) interleaves them and reports the overhead ratio;
// "public" and "internal" run one side only — the single-side modes are the
// CI smoke (is the path alive and sane?) and need no baseline.
func APICompare(w io.Writer, o Options, which string) {
	o = o.defaulted()
	switch which {
	case "public", "internal":
		const rounds = 25
		Section(w, "API micro-benchmarks, %s path only (median of %d ~1ms slices, 1 thread)", which, rounds)
		t := NewTable("benchmark", "scheme", "ns/op")
		for _, b := range apiBenchmarks {
			fixture := b.public
			if which == "internal" {
				fixture = b.internal
			}
			for _, s := range schemesOf(smr.HE, smr.HP) {
				run, teardown := fixture(o.Env.Wrap(s))
				perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.sliceIters) }
				run(b.sliceIters)
				vs := make([]float64, 0, rounds)
				for r := 0; r < rounds; r++ {
					t0 := time.Now()
					run(b.sliceIters)
					vs = append(vs, perOp(time.Since(t0)))
				}
				teardown()
				t.Row(b.name, s.Name, median(vs))
			}
		}
		o.emit(w, t)
	case "", "both":
		Section(w, "API overhead A/B: smr Guard path vs internal Handle path (%d interleaved ~1ms slices per side, 1 thread)", apiSlices)
		t := NewTable("benchmark", "scheme", "internal ns/op", "public ns/op", "public/internal")
		for _, b := range apiBenchmarks {
			for _, s := range schemesOf(smr.HE, smr.HP) {
				runInt, downInt := b.internal(o.Env.Wrap(s))
				runPub, downPub := b.public(o.Env.Wrap(s))
				mi, mp := abMedians(apiSlices, b.sliceIters, runInt, runPub)
				downInt()
				downPub()
				t.Row(b.name, s.Name, mi, mp, mp/mi)
			}
		}
		o.emit(w, t)
		fmt.Fprintln(w, "Each cell is the per-side median over fine-grained alternating slices: the")
		fmt.Fprintln(w, "two sides sample every clock regime and GC pause of the run in equal")
		fmt.Fprintln(w, "proportion, and the median discards the slices a preemption landed in.")
		fmt.Fprintln(w, "Bar: <= 1.03 on every row — the Guard wrappers inline to the Handle fast")
		fmt.Fprintln(w, "path plus one owner-only branch (see DESIGN.md).")
	default:
		fmt.Fprintf(w, "unknown -api mode %q (want public, internal or both)\n", which)
	}
}
