package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/bst"
	"repro/internal/list"
	"repro/smr"
)

// Options controls the experiment drivers. Zero values are replaced by the
// defaults of DefaultOptions.
type Options struct {
	// Dur is the measured duration of each benchmark cell.
	Dur time.Duration
	// Threads is the worker-count sweep (the paper sweeps 1..64 on a
	// 32-core machine; oversubscribed points are part of the evaluation).
	Threads []int
	// Sizes is the list-size sweep of Figure 4.
	Sizes []uint64
	// Updates is the update-percentage sweep of Figure 4.
	Updates []int
	// Seed makes runs reproducible.
	Seed uint64
	// CSV switches the report format from aligned text to CSV.
	CSV bool
	// Grow runs every cell with an undersized registry (initial capacity
	// 2) so workers register through dynamically grown slot blocks — the
	// hebench -grow flag. See Workload.Grow.
	Grow bool
	// Env is the run environment every cell's domains and structures are
	// built in (observability, byte values).
	Env Env
}

// capFor is the structure capacity for a cell with n expected sessions:
// n normally, a deliberately undersized 2 when -grow is exercising the
// registry's growth path.
func (o Options) capFor(n int) int {
	if o.Grow {
		return 2
	}
	return n
}

// DefaultOptions mirrors the paper's grid, scaled to a small machine:
// sizes {100, 1000, 10000} x updates {0, 10, 100}, with a short per-cell
// duration suitable for CI (raise -dur for real measurements).
func DefaultOptions() Options {
	return Options{
		Dur:     200 * time.Millisecond,
		Threads: []int{1, 2, 4, 8},
		Sizes:   []uint64{100, 1000, 10000},
		Updates: []int{0, 10, 100},
		Seed:    42,
	}
}

func (o Options) defaulted() Options {
	d := DefaultOptions()
	if o.Dur <= 0 {
		o.Dur = d.Dur
	}
	if len(o.Threads) == 0 {
		o.Threads = d.Threads
	}
	if len(o.Sizes) == 0 {
		o.Sizes = d.Sizes
	}
	if len(o.Updates) == 0 {
		o.Updates = d.Updates
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

func (o Options) emit(w io.Writer, t *Table) {
	if o.CSV {
		t.CSV(w)
	} else {
		t.Write(w)
	}
}

// RunCell builds a fresh list under scheme s in e (e.ValSizer switches it
// into byte-value mode), pre-fills it, runs one cell of the paper's grid,
// and tears everything down.
func (e Env) RunCell(s Scheme, w Workload, dur time.Duration, seed uint64) Result {
	capacity := w.Threads + 2
	if w.Grow {
		capacity = 2
	}
	l := Struct("list").New(e.Wrap(s).Make, false, capacity, e.ValSizer)
	Prefill(l.Set, w.Size)
	res := RunSet(l.Set, w, dur, seed)
	l.Drain()
	return res
}

// Figure4 regenerates the paper's Figure 4: the Maged-Harris list under
// HP / HE / URCU for every (size, update%) panel, sweeping threads, with
// throughput normalized to HP ("The vertical axis is the ratio of total
// number of operations, normalized to the value for Hazard Pointers").
func Figure4(w io.Writer, o Options) {
	o = o.defaulted()
	schemes := schemesOf(smr.HP, smr.HE, smr.URCU)
	for _, size := range o.Sizes {
		for _, upd := range o.Updates {
			Section(w, "Figure 4 panel: list size=%d, updates=%d%%, %v/cell", size, upd, o.Dur)
			var wls []Workload
			for _, th := range o.Threads {
				wls = append(wls, Workload{Size: size, UpdatePercent: upd, Threads: th, Grow: o.Grow})
			}
			o.emit(w, o.hpNormalized(schemes, wls))
		}
	}
}

// hpNormalized runs one cell per workload and scheme and tabulates, per
// workload's thread count, each scheme's Mops/s next to its ratio to HP's.
// schemes must list HP first.
func (o Options) hpNormalized(schemes []Scheme, wls []Workload) *Table {
	head := []string{"threads"}
	for _, s := range schemes {
		head = append(head, s.Name+" Mops", s.Name+"/HP")
	}
	tbl := NewTable(head...)
	for _, wl := range wls {
		row := []any{wl.Threads}
		var hpMops float64
		for _, s := range schemes {
			res := o.Env.RunCell(s, wl, o.Dur, o.Seed)
			if s.Name == "HP" {
				hpMops = res.MopsPerSec
			}
			ratio := 0.0
			if hpMops > 0 {
				ratio = res.MopsPerSec / hpMops
			}
			row = append(row, res.MopsPerSec, ratio)
		}
		tbl.Row(row...)
	}
	return tbl
}

// table1Static is the qualitative half of the paper's Table 1, reprinted.
// The Drop-the-Anchor row is carried from the paper (it is related work the
// paper itself did not implement either).
var table1Static = [][]string{
	{"Reference Count", "lock-free/wfpo", "lock-free/wfb", "O(threads)", "2 fetch_add()"},
	{"Epoch-based", "wfpo", "blocking", "unbounded", "minor"},
	{"Userspace RCU", "wfpo", "blocking", "O(threads)", "minor"},
	{"Hazard Pointers", "lock-free/wfb", "wfb", "O(threads^2)", "2 load() + 1 store()"},
	{"Drop the Anchor*", "lock-free", "lock-free", "O(interval x threads^2)", "2 load()"},
	{"Hazard Eras", "lock-free/wfb", "wfb", "finite (Eq. 1)", "2 load()"},
}

// Table1 regenerates the paper's Table 1: the qualitative classification,
// then the measured per-node reader-side synchronization (instrumented
// traversals), then the measured bound on memory usage under a stalled
// reader.
func Table1(w io.Writer, o Options) {
	o = o.defaulted()

	Section(w, "Table 1a: progress conditions (paper classification; * = not implemented, reprinted)")
	t := NewTable("technique", "readers", "reclaimers", "memory bound", "per-node sync (design)")
	for _, r := range table1Static {
		t.Row(r[0], r[1], r[2], r[3], r[4])
	}
	o.emit(w, t)

	Section(w, "Table 1b: measured per-node reader synchronization (instrumented, list size=100)")
	t = NewTable("scheme", "loads/node", "stores/node", "rmws/node", "nodes visited")
	for _, s := range AllSchemes() {
		loads, stores, rmws, visits := o.Env.measurePerNode(s, 100, 0)
		t.Row(s.Name, loads, stores, rmws, visits)
	}
	o.emit(w, t)

	Section(w, "Table 1c: measured per-node reader synchronization under 100%% update churn by a second thread")
	t = NewTable("scheme", "loads/node", "stores/node", "rmws/node", "nodes visited")
	for _, s := range AllSchemes() {
		loads, stores, rmws, visits := o.Env.measurePerNode(s, 100, 100)
		t.Row(s.Name, loads, stores, rmws, visits)
	}
	o.emit(w, t)

	Section(w, "Table 1d: measured memory bound under a stalled reader (list size=100, churn=20000 updates)")
	t = NewTable("scheme", "peak unreclaimed", "final unreclaimed", "freed", "verdict")
	for _, s := range schemesOf(smr.HE, smr.HP, smr.EBR, smr.None) {
		peak, final, freed, verdict := o.Env.measureStalledBound(s, 100, 20000)
		t.Row(s.Name, peak, final, freed, verdict)
	}
	fmt.Fprintln(w, "(URCU omitted: its Retire blocks forever against a stalled reader — Table 1's 'blocking' row — demonstrated in internal/urcu tests)")
	o.emit(w, t)
}

// measurePerNode runs an instrumented reader over a prefilled list under s
// in e; with churnPercent > 0 a second thread performs remove+reinsert
// churn so the era clock advances (degrading HE's fast path exactly as §4
// describes).
func (e Env) measurePerNode(s Scheme, size uint64, churnPercent int) (loads, stores, rmws float64, visits int64) {
	ins := smr.NewInstrument(8)
	l := list.New(e.Wrap(s).Make, list.WithMaxThreads(8), list.WithInstrument(ins))
	Prefill(l, size)

	stop := make(chan struct{})
	churnDone := make(chan struct{})
	if churnPercent > 0 {
		go func() {
			defer close(churnDone)
			g := l.Register()
			defer g.Unregister()
			rng := NewSplitMix64(7)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(size)
				if l.Remove(g, k) {
					l.Insert(g, k, k)
				}
				// Yield after every update so reader and churn interleave
				// finely even on one core.
				runtime.Gosched()
			}
		}()
	} else {
		close(churnDone)
	}

	g := l.Register()
	rng := NewSplitMix64(3)
	ins.Reset()
	for i := 0; i < 2000; i++ {
		l.Contains(g, rng.Intn(size))
		if churnPercent > 0 && i%4 == 0 {
			// Yield so the churn thread interleaves even on a single core;
			// otherwise the whole measurement can finish inside one
			// scheduler quantum and "churn" never actually runs.
			runtime.Gosched()
		}
	}
	snap := ins.Snapshot()
	g.Unregister()
	close(stop)
	<-churnDone
	l.Drain()
	// The churn thread also issues Protects; its share is part of Visits,
	// which is fine: per-node averages remain per protected node.
	return snap.PerVisitLoads(), snap.PerVisitStores(), snap.PerVisitRMWs(), snap.Visits
}

// measureStalledBound parks a reader mid-operation on a list under s in e,
// churns updates, and reports the pending-reclamation accounting (the
// Equation-1 subject). s runs with the paper's scan on every retire, the
// trigger Equation 1 and Appendix A are stated for.
func (e Env) measureStalledBound(s Scheme, size uint64, churnOps int) (peak, final, freed int64, verdict string) {
	l := list.New(e.Wrap(EveryRetire(s)).Make, list.WithMaxThreads(8))
	Prefill(l, size)
	release := make(chan struct{})
	done := StalledReader(l, release)

	dom := l.Domain()
	g := l.Register()
	rng := NewSplitMix64(11)
	for i := 0; i < churnOps; i++ {
		k := rng.Intn(size)
		if l.Remove(g, k) {
			l.Insert(g, k, k)
		}
	}
	st := dom.Stats()
	peak, final, freed = st.PeakPending, st.Pending, st.Freed
	switch {
	case final <= int64(size)+list.Slots:
		verdict = "bounded (<= live set at stall)"
	case freed == 0:
		verdict = "UNBOUNDED (nothing reclaimed)"
	default:
		verdict = "grows"
	}
	g.Unregister()
	close(release)
	<-done
	l.Drain()
	return peak, final, freed, verdict
}

// EquationOneBound sweeps the live-set size at the moment a reader stalls
// and verifies the paper's §3.1 claim: the unreclaimed set is bounded by
// the objects whose lifetime covers the published era — i.e. it scales
// with the live set, not with the amount of churn.
func EquationOneBound(w io.Writer, o Options) {
	o = o.defaulted()
	Section(w, "Equation 1: HE unreclaimed-object bound vs live set at stall (churn=20000)")
	t := NewTable("live set at stall", "churn ops", "peak unreclaimed", "final unreclaimed", "bound respected")
	for _, size := range []uint64{10, 100, 1000} {
		peak, final, _, _ := o.Env.measureStalledBound(Of(smr.HE), size, 20000)
		// The bound: objects alive at the pinned era (size) plus the
		// transient in-flight retiree per thread.
		bound := int64(size) + list.Slots
		t.Row(size, 20000, peak, final, final <= bound && peak <= bound+1)
	}
	o.emit(w, t)
}

// KAdvance runs the §3.4 k-advance ablation: advancing the era clock every
// k retires trades pending memory for reader throughput. Every row scans on
// every retire, so k = 1 is Algorithm 3's advance on every retire and the
// advance cadence falls monotonically with k.
func KAdvance(w io.Writer, o Options) {
	o = o.defaulted()
	th := o.Threads[len(o.Threads)-1]
	wl := Workload{Size: 1000, UpdatePercent: 10, Threads: th, Grow: o.Grow}
	Section(w, "Ablation (§3.4): era-clock k-advance, list size=%d, updates=%d%%, threads=%d", wl.Size, wl.UpdatePercent, th)
	t := NewTable("k", "Mops", "peak pending", "final era clock")
	for _, k := range []int{1, 4, 16, 64} {
		res := o.Env.RunCell(EveryRetire(HEk(k)), wl, o.Dur, o.Seed)
		t.Row(k, res.MopsPerSec, res.Domain.PeakPending, res.Domain.EraClock)
	}
	o.emit(w, t)
}

// MinMax runs the §3.4 min/max-publication ablation on deep-path BST
// traversals: with one protection slot per tree level, HP must publish a
// pointer per level, HE an era per level (fast path permitting), HE-minmax
// at most two eras total.
func MinMax(w io.Writer, o Options) {
	o = o.defaulted()
	th := o.Threads[len(o.Threads)-1]
	const size = 10000
	Section(w, "Ablation (§3.4): min/max era publication, BST size=%d (%d protection slots), threads=%d", size, bst.Slots, th)
	for _, upd := range []int{0, 10} {
		t := NewTable("scheme", "Mops", "ratio vs HP", "peak pending")
		var hpMops float64
		for _, s := range schemesOf(smr.HP, smr.HE, smr.HEMinMax) {
			tr := Struct("bst").New(o.Env.Wrap(s).Make, false, o.capFor(th+2), o.Env.ValSizer)
			Prefill(tr.Set, size)
			res := RunSet(tr.Set, Workload{Size: size, UpdatePercent: upd, Threads: th}, o.Dur, o.Seed)
			tr.Drain()
			if s.Name == "HP" {
				hpMops = res.MopsPerSec
			}
			ratio := 0.0
			if hpMops > 0 {
				ratio = res.MopsPerSec / hpMops
			}
			t.Row(s.Name, res.MopsPerSec, ratio, res.Domain.PeakPending)
		}
		Section(w, "BST updates=%d%%", upd)
		o.emit(w, t)
	}
}

// Oversubscription probes the regime the paper highlights in §4: "For the
// plots more to the right, the number of updates increases and the
// advantage of URCU reduces, becoming worse than HP and HE with
// oversubscription. This happens because a preempted reader may block one
// or multiple reclaimers for long periods of time." Threads are swept well
// past the core count; the blocking schemes' update operations stall on
// preempted readers while the pointer-based schemes keep going.
func Oversubscription(w io.Writer, o Options) {
	o = o.defaulted()
	cores := runtime.NumCPU()
	wlSize := uint64(100)
	upd := 50
	Section(w, "Oversubscription: list size=%d, updates=%d%%, NumCPU=%d", wlSize, upd, cores)
	var wls []Workload
	for _, mult := range []int{1, 2, 8, 32} {
		wls = append(wls, Workload{Size: wlSize, UpdatePercent: upd, Threads: cores * mult, Grow: o.Grow})
	}
	o.emit(w, o.hpNormalized(schemesOf(smr.HP, smr.HE, smr.EBR, smr.URCU), wls))
	fmt.Fprintln(w, "Shape check: EBR degrades sharply as threads exceed cores (stalled epochs")
	fmt.Fprintln(w, "inflate its retire-scan work); HP/HE hold steady. URCU degrades less here")
	fmt.Fprintln(w, "than on the paper's testbed because the Go scheduler reschedules a")
	fmt.Fprintln(w, "'preempted' reader within milliseconds, unlike an adversarial OS quantum.")
}

// Stalled regenerates the Appendix-A contrast (Figures 5/6) quantitatively:
// with a stalled reader, EBR's limbo grows with churn while HE's pending
// set stays at the live set it had when the reader stalled.
func Stalled(w io.Writer, o Options) {
	o = o.defaulted()
	Section(w, "Appendix A (Figs. 5/6): pending objects vs churn under a stalled reader, list size=100")
	churns := []int{1000, 5000, 20000}
	t := NewTable("scheme", "pend@1k", "freed@1k", "pend@5k", "freed@5k", "pend@20k", "freed@20k")
	for _, s := range schemesOf(smr.HE, smr.HP, smr.WFE, smr.Hyaline, smr.HyalinePlain, smr.EBR) {
		row := []any{s.Name}
		for _, churn := range churns {
			_, final, freed, _ := o.Env.measureStalledBound(s, 100, churn)
			row = append(row, final, freed)
		}
		t.Row(row...)
	}
	o.emit(w, t)
	fmt.Fprintln(w, "Shape check: EBR and non-robust hyaline pending grows linearly with churn")
	fmt.Fprintln(w, "(the stalled reader pins every later batch); HE/HP/WFE/hyaline-1r pending")
	fmt.Fprintln(w, "is bounded by the live set at the moment the reader stalled.")
}

// RFactor runs the Hazard Pointers scan-threshold ablation (§3.1: "In HP
// the retired nodes are placed in a retired list which is scanned once its
// size reaches an R threshold. ... when the R factor is set to the lowest
// setting of 1, each reclaimer can have at most a list of retired nodes
// with a size equal to the number of threads minus 1, times the number of
// hazard pointers"): larger R amortizes the O(threads x slots) scan over
// more retirements at the cost of more pending memory.
func RFactor(w io.Writer, o Options) {
	o = o.defaulted()
	th := o.Threads[len(o.Threads)-1]
	wl := Workload{Size: 1000, UpdatePercent: 10, Threads: th, Grow: o.Grow}
	Section(w, "Ablation: HP scan threshold (R factor), list size=%d, updates=%d%%, threads=%d", wl.Size, wl.UpdatePercent, th)
	t := NewTable("R", "Mops", "peak pending", "scans", "freed")
	for _, r := range []int{1, 8, 64, 512} {
		res := o.Env.RunCell(HPr(r), wl, o.Dur, o.Seed)
		t.Row(r, res.MopsPerSec, res.Domain.PeakPending, res.Domain.Scans, res.Domain.Freed)
	}
	o.emit(w, t)

	// The era-scheme counterpart: Config.ScanR scans once per
	// R*issued*Slots retirements since the last scan (relative units, vs.
	// HP's absolute count above), adding R*H unscanned objects per session
	// to the Equation 1 bound while dividing scan frequency by R*H.
	Section(w, "Ablation: era-scheme scan amortization (Config.ScanR), list size=%d, updates=%d%%, threads=%d", wl.Size, wl.UpdatePercent, th)
	t2 := NewTable("scheme", "ScanR", "Mops", "peak pending", "scans", "freed")
	for _, r := range []int{0, 1, 4, 16} {
		for _, mk := range []func(int) Scheme{HEr, IBRr} {
			s := mk(r)
			if r == 0 {
				// Row 0 is the paper's Algorithm 3: a scan on every retire.
				s = EveryRetire(s)
				s.Name = s.Name[:strings.IndexByte(s.Name, '-')]
			}
			res := o.Env.RunCell(s, wl, o.Dur, o.Seed)
			t2.Row(s.Name, r, res.MopsPerSec, res.Domain.PeakPending, res.Domain.Scans, res.Domain.Freed)
		}
	}
	o.emit(w, t2)
}
