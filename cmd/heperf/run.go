package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/smr"
)

// calibRef is the calibration kernel's rate, in million hops per second, on
// the reference host (a 2-vCPU KVM guest on an Intel Xeon, Go 1.24) when
// the host is quiet. Each round's scheme windows are scaled by the square of
// calibRef over the rate measured in that round, so their numbers read as
// if taken on the quiet reference host.
//
// The square is measured, not derived: over 80 runs on a shared host, when
// other tenants slowed the kernel by a share s the workloads slowed by
// about 2s. The kernel chases pointers in L1, so it feels only the CPU time
// the host takes away; the workloads also lose speed per cycle to
// neighbours on the same core and mesh. Scaling by the plain ratio left
// 12-22% run-to-run spreads; the square left 3-11%.
const (
	calibRef      = 1150.0
	calibExponent = 2
)

// scheme is one reclamation scheme under measurement.
type scheme struct {
	name string // metric-name suffix or prefix
	id   smr.Scheme
}

// measured are the schemes every workload compares end to end.
var measured = []scheme{{"he", smr.HE}, {"hp", smr.HP}}

// Run-shape constants.
const (
	setupReps = 9                      // builds per run; setup_s is their median
	windowLen = 250 * time.Millisecond // one measurement window
	pollEvery = time.Millisecond       // coordinator's Stats() polling period
	calibLen  = 1000                   // nodes in each calibration list
)

type config struct {
	seed    uint64
	workers int
	window  time.Duration
	rounds  int
	trace   bool
}

// looper runs until stop is set.
type looper interface{ loop(stop *atomic.Bool) }

// runLoops runs every looper on its own goroutine for d, calling poll from
// the calling goroutine every pollEvery, then stops and waits for all of
// them. It returns the time from start to the last one ending.
func runLoops(ls []looper, d time.Duration, poll func()) time.Duration {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for _, l := range ls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.loop(&stop)
		}()
	}
	for time.Since(start) < d {
		poll()
		time.Sleep(pollEvery)
	}
	stop.Store(true)
	wg.Wait()
	return time.Since(start)
}

// ---- calibration ---------------------------------------------------------

type calibNode struct {
	next *calibNode
	val  uint64
}

// walker chases pointers around a private Go-heap list. It touches nothing
// of the repository, so its rate tracks only the host's speed at the time.
type walker struct {
	head *calibNode
	hops int64
	sink uint64
}

func newWalker() *walker {
	var head *calibNode
	for i := 0; i < calibLen; i++ {
		head = &calibNode{next: head, val: uint64(i)}
	}
	return &walker{head: head}
}

func (c *walker) loop(stop *atomic.Bool) {
	var hops int64
	var sum uint64
	for !stop.Load() {
		for n := c.head; n != nil; n = n.next {
			sum += n.val
		}
		hops += calibLen
	}
	c.hops, c.sink = hops, sum
}

// calibrate runs the kernel on every worker slot for d and returns its rate
// in million hops per second.
func calibrate(walkers []*walker, d time.Duration) float64 {
	ls := make([]looper, len(walkers))
	for i, w := range walkers {
		ls[i] = w
	}
	elapsed := runLoops(ls, d, func() {})
	var hops int64
	for _, w := range walkers {
		hops += w.hops
	}
	return float64(hops) / elapsed.Seconds() / 1e6
}

// ---- one scheme's structure ----------------------------------------------

// window is what one measurement window of one scheme produced, as
// measured. Latencies are in ns, -1 when the window drew no sample of a kind.
type window struct {
	factor                        float64 // the round's calibration factor
	mops                          float64
	readP99, updateP50, updateP99 float64
	nRead, nUpdate                int
	live                          float64 // mean polled arena Live: blocks held, pending ones included
	pending                       float64 // mean polled PendingBytes
	polls                         int
}

// counts are reclamation and allocator totals over a run's windows.
type counts struct {
	ops, retired, freed, scans int64
	eras                       uint64
	allocs, reuses             int64
	peakPending                int64
}

type schemeRun struct {
	scheme
	set     set
	workers []*worker
	loops   []looper
	logs    []*spanLog // per worker, traced runs only
	stall   *smr.Guard // the pinned reader's session (stall workload)

	plain, traced []window
	tot           counts
	reads, upds   []int64 // one window's samples from all workers, reused across windows
}

func newSchemeRun(w *workload, sc scheme, cfg config) *schemeRun {
	s := w.build(sc.id)
	prefill(s, w, cfg.seed)
	sr := &schemeRun{scheme: sc, set: s}
	for i := 0; i < cfg.workers; i++ {
		k := &worker{w: w, s: s, g: s.Register(), id: i, rng: stream(cfg.seed, i+1)}
		sr.workers = append(sr.workers, k)
		sr.loops = append(sr.loops, k)
		if cfg.trace {
			sr.logs = append(sr.logs, &spanLog{})
		}
	}
	if w.stall {
		sr.stall = s.Register()
	}
	return sr
}

// run measures one window. factor is the round's calibration factor.
func (sr *schemeRun) run(d time.Duration, factor float64, traced bool) (window, counts) {
	for i, k := range sr.workers {
		k.reset()
		k.spans = nil
		if traced {
			k.spans = sr.logs[i]
		}
	}
	if sr.stall != nil {
		sr.set.(pinner).Pin(sr.stall)
	}
	dom := sr.set.SMR()
	st0, ar0 := dom.Stats(), dom.Arena().Stats()
	var pending, live, peak int64
	var polls int
	elapsed := runLoops(sr.loops, d, func() {
		b := dom.Stats().PendingBytes
		pending += b
		peak = max(peak, b)
		live += dom.Arena().Stats().Live
		polls++
	})
	st1, ar1 := dom.Stats(), dom.Arena().Stats()
	if sr.stall != nil {
		sr.set.(pinner).Unpin(sr.stall)
	}

	var ops int64
	sr.reads, sr.upds = sr.reads[:0], sr.upds[:0]
	for _, k := range sr.workers {
		ops += k.ops
		sr.reads = append(sr.reads, k.readNs...)
		sr.upds = append(sr.upds, k.updateNs...)
	}
	lat := func(xs []int64, p float64) float64 {
		if len(xs) == 0 {
			return -1
		}
		return percentile(xs, p)
	}
	win := window{
		factor:    factor,
		mops:      float64(ops) / elapsed.Seconds() / 1e6,
		readP99:   lat(sr.reads, 0.99),
		updateP50: lat(sr.upds, 0.50),
		updateP99: lat(sr.upds, 0.99),
		nRead:     len(sr.reads), nUpdate: len(sr.upds),
		live:    float64(live) / float64(max(polls, 1)),
		pending: float64(pending) / float64(max(polls, 1)), polls: polls,
	}
	c := counts{
		ops: ops, retired: st1.Retired - st0.Retired, freed: st1.Freed - st0.Freed,
		scans: st1.Scans - st0.Scans, eras: st1.EraClock - st0.EraClock,
		allocs: ar1.Allocs - ar0.Allocs, reuses: ar1.Reuses - ar0.Reuses, peakPending: peak,
	}
	return win, c
}

func (c *counts) add(d counts) {
	c.ops += d.ops
	c.retired += d.retired
	c.freed += d.freed
	c.scans += d.scans
	c.eras += d.eras
	c.allocs += d.allocs
	c.reuses += d.reuses
	c.peakPending = max(c.peakPending, d.peakPending)
}

// verify checks the structure once its workers have stopped: every key is
// back, the arena saw no fault, and after Drain every retired node was
// freed. It drains the structure.
func (sr *schemeRun) verify(keys uint64) []string {
	var bad []string
	for _, k := range sr.workers {
		if k.failed > 0 {
			bad = append(bad, fmt.Sprintf("%s worker %d: %d failed operations; first: %s", sr.name, k.id, k.failed, k.firstErr))
		}
	}
	if n := sr.set.Len(); uint64(n) != keys {
		bad = append(bad, fmt.Sprintf("%s: Len() = %d after the run, want %d", sr.name, n, keys))
	}
	if f := sr.set.SMR().Arena().Stats().Faults; f != 0 {
		bad = append(bad, fmt.Sprintf("%s: arena reported %d faults", sr.name, f))
	}
	sr.set.Drain()
	if st := sr.set.SMR().Stats(); st.Pending != 0 || st.Freed != st.Retired {
		bad = append(bad, fmt.Sprintf("%s: after Drain pending=%d freed=%d retired=%d", sr.name, st.Pending, st.Freed, st.Retired))
	}
	return bad
}

// ---- one workload ----------------------------------------------------------

// workloadRun is one workload measured under every scheme in measured.
type workloadRun struct {
	w       *workload
	cfg     config
	runs    []*schemeRun
	setup   []float64 // seconds per build
	calib   []float64 // Mhops/s per round
	heapMiB float64
}

// build constructs and prefills every scheme's structure setupReps times,
// timing each, and keeps the last.
func (wr *workloadRun) build() {
	for i := 0; i < setupReps; i++ {
		wr.runs = nil
		runtime.GC() // collect the previous build outside the timed region
		t0 := time.Now()
		for _, sc := range measured {
			wr.runs = append(wr.runs, newSchemeRun(wr.w, sc, wr.cfg))
		}
		wr.setup = append(wr.setup, time.Since(t0).Seconds())
	}
}

// measure rotates windows through calib and each scheme, round after
// round, alternating the schemes' order; traced runs add a traced window per
// scheme to every round. One unrecorded round warms caches and lazy state.
func (wr *workloadRun) measure() {
	walkers := make([]*walker, wr.cfg.workers)
	for i := range walkers {
		walkers[i] = newWalker()
	}
	d := wr.cfg.window
	calibrate(walkers, d)
	for _, sr := range wr.runs {
		sr.run(d, 1, false)
	}
	for r := 0; r < wr.cfg.rounds; r++ {
		rate := calibrate(walkers, d)
		wr.calib = append(wr.calib, rate)
		factor := math.Pow(calibRef/rate, calibExponent)
		order := slices.Clone(wr.runs)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, traced := range []bool{false, true} {
			if traced && !wr.cfg.trace {
				continue
			}
			for _, sr := range order {
				win, c := sr.run(d, factor, traced)
				sr.tot.add(c)
				if traced {
					sr.traced = append(sr.traced, win)
				} else {
					sr.plain = append(sr.plain, win)
				}
			}
		}
	}
	// The heap as the timed phase leaves it, without the sample buffers.
	for _, sr := range wr.runs {
		sr.reads, sr.upds = nil, nil
		for _, k := range sr.workers {
			k.readNs, k.updateNs = nil, nil
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	wr.heapMiB = float64(ms.HeapAlloc) / (1 << 20)
}

// runWorkload builds, measures and verifies one workload.
func runWorkload(w *workload, cfg config, lg *ledger) (*workloadResult, []spanSource) {
	wr := &workloadRun{w: w, cfg: cfg}
	wr.build()
	wr.measure()

	res := &workloadResult{
		Rounds: cfg.rounds, WindowMs: float64(cfg.window) / 1e6,
		Traced: cfg.trace, CalibMhops: median(wr.calib),
	}
	for _, sr := range wr.runs {
		res.Attempted += sr.tot.ops
		for _, k := range sr.workers {
			res.Failed += k.failed
		}
	}
	if cfg.trace {
		res.Metrics = wr.perLayer(lg)
	} else {
		res.Metrics = wr.endToEnd()
	}
	var sources []spanSource
	for _, sr := range wr.runs {
		res.Problems = append(res.Problems, sr.verify(w.keys)...)
		for i, l := range sr.logs {
			sources = append(sources, spanSource{workload: w.name, structure: w.structure, scheme: sr.name, worker: i, log: l})
		}
	}
	return res, sources
}

// ---- metrics -----------------------------------------------------------------

// medianOf returns the median of get over the windows where it is known
// (>= 0), and how many windows that was.
func medianOf(ws []window, get func(window) float64) (float64, int) {
	var xs []float64
	for _, w := range ws {
		if v := get(w); v >= 0 {
			xs = append(xs, v)
		}
	}
	return median(xs), len(xs)
}

func (wr *workloadRun) endToEnd() []metric {
	ms := []metric{
		{Name: "setup_s", Unit: "s", Value: median(wr.setup), N: len(wr.setup)},
		{Name: "heap_mib", Unit: "MiB", Value: wr.heapMiB, N: 1},
	}
	for _, sr := range wr.runs {
		ws := sr.plain
		var nRead, nUpd, polls int
		for _, w := range ws {
			nRead += w.nRead
			nUpd += w.nUpdate
			polls += w.polls
		}
		// Each timed metric is the median window, scaled to the reference
		// host by that window's round factor: a rate up by it, a time down.
		rate := func(name string, get func(window) float64) metric {
			val, _ := medianOf(ws, func(w window) float64 { return get(w) * w.factor })
			raw, n := medianOf(ws, get)
			return metric{Name: sr.name + "." + name, Unit: "Mops/s", Value: val, N: n, Raw: &raw}
		}
		latency := func(name string, n int, get func(window) float64) metric {
			val, _ := medianOf(ws, func(w window) float64 { return get(w) / w.factor })
			raw, _ := medianOf(ws, get)
			raw /= 1e3
			return metric{Name: sr.name + "." + name, Unit: "us", Value: val / 1e3, N: n, Raw: &raw}
		}
		live, _ := medianOf(ws, func(w window) float64 { return w.live })
		ms = append(ms,
			rate("mops", func(w window) float64 { return w.mops }),
			latency("read_p99_us", nRead, func(w window) float64 { return w.readP99 }),
			latency("update_p50_us", nUpd, func(w window) float64 { return w.updateP50 }),
			latency("update_p99_us", nUpd, func(w window) float64 { return w.updateP99 }),
			metric{Name: sr.name + ".live_blocks", Unit: "count", Value: live, N: polls},
		)
	}
	return ms
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (wr *workloadRun) perLayer(lg *ledger) []metric {
	ms := slices.Clone(lg.metrics)
	var overhead float64
	for _, sr := range wr.runs {
		t := sr.tot
		ops := float64(t.ops)
		var pend float64
		var polls int
		for _, w := range append(slices.Clone(sr.plain), sr.traced...) {
			pend += w.pending * float64(w.polls)
			polls += w.polls
		}
		ms = append(ms,
			metric{Name: "reclaim.pending_mean_kib." + sr.name, Unit: "KiB", Value: ratio(pend, float64(polls)) / 1024, N: polls},
			metric{Name: "reclaim.retired_per_op." + sr.name, Unit: "1/op", Value: ratio(float64(t.retired), ops), N: int(t.ops)},
			metric{Name: "reclaim.scans_per_kop." + sr.name, Unit: "1/kop", Value: 1e3 * ratio(float64(t.scans), ops), N: int(t.ops)},
			metric{Name: "reclaim.freed_per_scan." + sr.name, Unit: "frees/scan", Value: ratio(float64(t.freed), float64(t.scans)), N: int(t.scans)},
			metric{Name: "mem.allocs_per_op." + sr.name, Unit: "1/op", Value: ratio(float64(t.allocs), ops), N: int(t.ops)},
			metric{Name: "mem.reuse_ratio." + sr.name, Unit: "ratio", Value: ratio(float64(t.reuses), float64(t.allocs)), N: int(t.allocs)},
			metric{Name: "reclaim.pending_peak_kib." + sr.name, Unit: "KiB", Value: float64(t.peakPending) / 1024, N: len(sr.plain) + len(sr.traced)},
		)
		if sr.id == smr.HE {
			ms = append(ms, metric{Name: "core.era_advances_per_kop.he", Unit: "1/kop", Value: 1e3 * ratio(float64(t.eras), ops), N: int(t.ops)})
		}
		var merged spanLog
		for _, l := range sr.logs {
			merged.read = append(merged.read, l.read...)
			merged.update = append(merged.update, l.update...)
			merged.remove = append(merged.remove, l.remove...)
			merged.insert = append(merged.insert, l.insert...)
		}
		for _, k := range []struct {
			kind string
			xs   []int64
		}{{"read", merged.read}, {"update", merged.update}, {"remove", merged.remove}, {"insert", merged.insert}} {
			ms = append(ms,
				metric{Name: "struct." + k.kind + "_p50_ns." + sr.name, Unit: "ns", Value: percentile(k.xs, 0.50), N: len(k.xs)},
				metric{Name: "struct." + k.kind + "_p99_ns." + sr.name, Unit: "ns", Value: percentile(k.xs, 0.99), N: len(k.xs)},
			)
		}
		plain, _ := medianOf(sr.plain, func(w window) float64 { return w.mops * w.factor })
		traced, _ := medianOf(sr.traced, func(w window) float64 { return w.mops * w.factor })
		overhead += 100 * (ratio(plain, traced) - 1) / float64(len(wr.runs))
	}
	return append(ms, metric{Name: "trace.overhead_pct", Unit: "%", Value: overhead, N: len(wr.runs[0].traced)})
}
