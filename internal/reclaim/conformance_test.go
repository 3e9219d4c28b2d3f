package reclaim_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ebr"
	"repro/internal/hp"
	"repro/internal/hyaline"
	"repro/internal/ibr"
	"repro/internal/leak"
	"repro/internal/mem"
	"repro/internal/rc"
	"repro/internal/reclaim"
	"repro/internal/urcu"
	"repro/internal/wfe"
)

// Cross-scheme conformance: the identical usage pattern must be memory-safe
// under every Domain implementation — this is the structural statement of
// the paper's "drop-in replacement" claim.

type cnode struct {
	val  uint64
	next atomic.Uint64
}

const threads = 8

func domains() map[string]func(alloc reclaim.Allocator) reclaim.Domain {
	cfg := reclaim.Config{MaxThreads: threads, Slots: 2}
	// cfgR doubles the default amortized batch (threshold 2*issued*2
	// retires since the last scan) so every conformance property is also
	// exercised with larger batches and drain-on-unregister in play.
	cfgR := reclaim.Config{MaxThreads: threads, Slots: 2, ScanR: 2}
	return map[string]func(alloc reclaim.Allocator) reclaim.Domain{
		"HE":        func(a reclaim.Allocator) reclaim.Domain { return core.New(a, cfg) },
		"HE-k16":    func(a reclaim.Allocator) reclaim.Domain { return core.New(a, cfg, core.WithAdvanceEvery(16)) },
		"HE-minmax": func(a reclaim.Allocator) reclaim.Domain { return core.New(a, cfg, core.WithMinMax(true)) },
		"HE-R2":     func(a reclaim.Allocator) reclaim.Domain { return core.New(a, cfgR) },
		"HE-R2-minmax": func(a reclaim.Allocator) reclaim.Domain {
			return core.New(a, cfgR, core.WithMinMax(true))
		},
		"HP":         func(a reclaim.Allocator) reclaim.Domain { return hp.New(a, cfg) },
		"HP-R2":      func(a reclaim.Allocator) reclaim.Domain { return hp.New(a, cfgR) },
		"IBR":        func(a reclaim.Allocator) reclaim.Domain { return ibr.New(a, cfg) },
		"IBR-R2":     func(a reclaim.Allocator) reclaim.Domain { return ibr.New(a, cfgR) },
		"hyaline-1r": func(a reclaim.Allocator) reclaim.Domain { return hyaline.New(a, cfg) },
		"hyaline": func(a reclaim.Allocator) reclaim.Domain {
			return hyaline.New(a, cfg, hyaline.WithRobust(false))
		},
		"hyaline-R2": func(a reclaim.Allocator) reclaim.Domain { return hyaline.New(a, cfgR) },
		"WFE":        func(a reclaim.Allocator) reclaim.Domain { return wfe.New(a, cfg) },
		"WFE-t1":     func(a reclaim.Allocator) reclaim.Domain { return wfe.New(a, cfg, wfe.WithMaxTries(1)) },
		"WFE-R2":     func(a reclaim.Allocator) reclaim.Domain { return wfe.New(a, cfgR) },
		"EBR":        func(a reclaim.Allocator) reclaim.Domain { return ebr.New(a, cfg) },
		"URCU":       func(a reclaim.Allocator) reclaim.Domain { return urcu.New(a, cfg) },
		"RC":         func(a reclaim.Allocator) reclaim.Domain { return rc.New(a, cfg) },
		"NONE":       func(a reclaim.Allocator) reclaim.Domain { return leak.New(a, cfg) },
	}
}

// TestConformanceSingleThreaded drives the canonical protect/retire cycle.
func TestConformanceSingleThreaded(t *testing.T) {
	for name, mk := range domains() {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena[cnode](mem.Checked[cnode](true))
			d := mk(arena)
			if d.Name() == "" {
				t.Fatal("empty scheme name")
			}
			h := d.Register()
			defer d.Unregister(h)

			var cell atomic.Uint64
			for i := 0; i < 100; i++ {
				ref, n := arena.Alloc()
				n.val = uint64(i)
				d.OnAlloc(ref)
				old := mem.Ref(cell.Swap(uint64(ref)))

				d.BeginOp(h)
				got := d.Protect(h, 0, &cell)
				if arena.Get(got).val != uint64(i) {
					t.Fatalf("iteration %d: wrong payload", i)
				}
				d.EndOp(h)

				if !old.IsNil() {
					d.Retire(h, old)
				}
			}
			d.Retire(h, mem.Ref(cell.Swap(0)))
			d.Drain()
			s := d.Stats()
			if s.Retired != 100 {
				t.Fatalf("Retired = %d, want 100", s.Retired)
			}
			if got := arena.Stats().Faults; got != 0 {
				t.Fatalf("faults: %d", got)
			}
			// All schemes except RC track pending; after Drain nothing
			// may pend anywhere.
			if s.Pending != 0 {
				t.Fatalf("pending after drain: %+v", s)
			}
		})
	}
}

// TestConformanceConcurrentStress hammers a pair of shared cells with
// readers and swapping writers under a checked arena for every scheme.
func TestConformanceConcurrentStress(t *testing.T) {
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	for name, mk := range domains() {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena[cnode](mem.Checked[cnode](true))
			d := mk(arena)

			var cells [2]atomic.Uint64
			for i := range cells {
				ref, n := arena.Alloc()
				n.val = 42
				d.OnAlloc(ref)
				cells[i].Store(uint64(ref))
			}

			var wg sync.WaitGroup
			fail := make(chan string, threads)
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(worker int) {
					defer wg.Done()
					h := d.Register()
					defer d.Unregister(h)
					writer := worker%2 == 0
					for i := 0; i < iters; i++ {
						ci := (worker + i) % 2
						if writer {
							nref, n := arena.Alloc()
							n.val = 42
							d.OnAlloc(nref)
							old := mem.Ref(cells[ci].Swap(uint64(nref)))
							d.Retire(h, old)
						} else {
							d.BeginOp(h)
							got := d.Protect(h, ci, &cells[ci])
							if v := arena.Get(got).val; v != 42 {
								fail <- fmt.Sprintf("%s: observed corrupt value %d", name, v)
								d.EndOp(h)
								return
							}
							d.EndOp(h)
						}
					}
				}(w)
			}
			wg.Wait()
			close(fail)
			for msg := range fail {
				t.Fatal(msg)
			}
			d.Drain()
			if f := arena.Stats().Faults; f != 0 {
				t.Fatalf("%s: %d memory faults under stress", name, f)
			}
		})
	}
}

// TestConformanceRetireCountsMatchFrees: after drain, frees must equal
// retires for every list-based scheme (RC frees inline; leak frees at
// drain).
func TestConformanceRetireCountsMatchFrees(t *testing.T) {
	for name, mk := range domains() {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena[cnode](mem.Checked[cnode](true))
			d := mk(arena)
			h := d.Register()
			for i := 0; i < 25; i++ {
				ref, _ := arena.Alloc()
				d.OnAlloc(ref)
				d.Retire(h, ref)
			}
			d.Unregister(h)
			d.Drain()
			s := d.Stats()
			if s.Freed != 25 || s.Pending != 0 {
				t.Fatalf("%s: %+v", name, s)
			}
			if arena.Stats().Live != 0 {
				t.Fatalf("%s leaked arena slots", name)
			}
		})
	}
}

// thresholdDomains are the era/pointer schemes wired to Config.ScanR, with
// the scan threshold each issued session adds (ScanR * Slots): a session
// scans once it has retired ScanR * issued * Slots objects since its last
// scan.
func thresholdDomains(r int) (map[string]func(alloc reclaim.Allocator) reclaim.Domain, int) {
	cfg := reclaim.Config{MaxThreads: threads, Slots: 2, ScanR: r}
	return map[string]func(alloc reclaim.Allocator) reclaim.Domain{
		"HE":        func(a reclaim.Allocator) reclaim.Domain { return core.New(a, cfg) },
		"HE-minmax": func(a reclaim.Allocator) reclaim.Domain { return core.New(a, cfg, core.WithMinMax(true)) },
		"HP":        func(a reclaim.Allocator) reclaim.Domain { return hp.New(a, cfg) },
		"IBR":       func(a reclaim.Allocator) reclaim.Domain { return ibr.New(a, cfg) },
	}, r * 2
}

// TestConformanceNoScanBelowThreshold: with ScanR set, retiring fewer
// objects than the threshold must trigger no scan at all (the whole point
// of amortization), and the retire crossing the threshold must scan and —
// with nothing protected — reclaim the entire batch.
func TestConformanceNoScanBelowThreshold(t *testing.T) {
	doms, perSession := thresholdDomains(1)
	threshold := perSession * threads // every initial slot issued below
	for name, mk := range doms {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena[cnode](mem.Checked[cnode](true))
			d := mk(arena)
			h := d.Register()
			defer d.Unregister(h)
			for i := 1; i < threads; i++ {
				defer d.Unregister(d.Register())
			}

			for i := 0; i < threshold-1; i++ {
				ref, _ := arena.Alloc()
				d.OnAlloc(ref)
				d.Retire(h, ref)
			}
			if s := d.Stats(); s.Scans != 0 || s.Pending != int64(threshold-1) {
				t.Fatalf("below threshold: scans=%d pending=%d, want 0 and %d",
					s.Scans, s.Pending, threshold-1)
			}

			ref, _ := arena.Alloc()
			d.OnAlloc(ref)
			d.Retire(h, ref) // crosses the threshold
			s := d.Stats()
			if s.Scans == 0 {
				t.Fatal("threshold crossing did not trigger a scan")
			}
			if s.Pending != 0 {
				t.Fatalf("burst above threshold not reclaimed: pending=%d", s.Pending)
			}
		})
	}
}

// TestConformanceUnregisterDrainsRetiredList: a thread leaving below the
// scan threshold must not strand its retired list — Unregister runs a final
// scan, so with nothing protected everything is reclaimed immediately, no
// Drain needed.
func TestConformanceUnregisterDrainsRetiredList(t *testing.T) {
	doms, threshold := thresholdDomains(1) // one session issued
	for name, mk := range doms {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena[cnode](mem.Checked[cnode](true))
			d := mk(arena)
			h := d.Register()
			for i := 0; i < threshold/2; i++ {
				ref, _ := arena.Alloc()
				d.OnAlloc(ref)
				d.Retire(h, ref)
			}
			d.Unregister(h)
			if s := d.Stats(); s.Pending != 0 {
				t.Fatalf("unregister stranded %d retired objects", s.Pending)
			}
			if st := arena.Stats(); st.Live != 0 || st.Faults != 0 {
				t.Fatalf("arena after unregister: %+v", st)
			}
		})
	}
}

// TestConformanceUnregisterHandsOffProtected: objects still protected by
// ANOTHER thread when their retirer unregisters must survive (no
// use-after-free) and move to the orphan pool, from which the next
// scanning thread adopts and eventually frees them.
func TestConformanceUnregisterHandsOffProtected(t *testing.T) {
	doms, perSession := thresholdDomains(1)
	threshold := perSession * 2 // reader and writer issued
	for name, mk := range doms {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena[cnode](mem.Checked[cnode](true))
			d := mk(arena)
			reader := d.Register()
			writer := d.Register()

			ref, n := arena.Alloc()
			n.val = 7
			d.OnAlloc(ref)
			var cell atomic.Uint64
			cell.Store(uint64(ref))

			d.BeginOp(reader)
			got := d.Protect(reader, 0, &cell)

			cell.Store(0)
			d.Retire(writer, got)
			d.Unregister(writer)

			if s := d.Stats(); s.Pending == 0 {
				t.Fatal("protected object freed by the retirer's unregister")
			}
			if v := arena.Get(got).val; v != 7 { // checked arena: UAF faults
				t.Fatalf("protected object corrupted: %d", v)
			}
			d.EndOp(reader)

			// The survivor sits in the orphan pool; the reader's next
			// threshold crossing must adopt and free it.
			for i := 0; i < threshold; i++ {
				r, _ := arena.Alloc()
				d.OnAlloc(r)
				d.Retire(reader, r)
			}
			if s := d.Stats(); s.Pending != 0 {
				t.Fatalf("orphaned object not adopted: pending=%d", s.Pending)
			}
			d.Unregister(reader)
			d.Drain()
			if st := arena.Stats(); st.Live != 0 || st.Faults != 0 {
				t.Fatalf("arena after drain: %+v", st)
			}
		})
	}
}

// TestDrainFoldsPooledHandleResidue: a session that retires below the scan
// threshold and parks its handle in the pool (Release) keeps its retired
// list with the slot, and Close must still fold it — Pending == 0, every
// retire freed, no live block. The domain keeps working after Close: a
// second round of retires through the pooled handle, reclaimed inline,
// closes the ledger exactly again.
func TestDrainFoldsPooledHandleResidue(t *testing.T) {
	cfg := reclaim.Config{MaxThreads: 4, Slots: 2, ScanR: 16} // threshold 16·1·2 = 32 for one session
	schemes := map[string]func(a reclaim.Allocator) reclaim.Domain{
		"HE":         func(a reclaim.Allocator) reclaim.Domain { return core.New(a, cfg) },
		"HE-minmax":  func(a reclaim.Allocator) reclaim.Domain { return core.New(a, cfg, core.WithMinMax(true)) },
		"HP":         func(a reclaim.Allocator) reclaim.Domain { return hp.New(a, cfg) },
		"EBR":        func(a reclaim.Allocator) reclaim.Domain { return ebr.New(a, cfg) },
		"URCU":       func(a reclaim.Allocator) reclaim.Domain { return urcu.New(a, cfg) },
		"IBR":        func(a reclaim.Allocator) reclaim.Domain { return ibr.New(a, cfg) },
		"hyaline-1r": func(a reclaim.Allocator) reclaim.Domain { return hyaline.New(a, cfg) },
		"WFE":        func(a reclaim.Allocator) reclaim.Domain { return wfe.New(a, cfg, wfe.WithMaxTries(1)) },
	}
	const retires = 10 // well below the threshold of 32
	for name, mk := range schemes {
		t.Run("inline/"+name, func(t *testing.T) {
			arena := mem.NewArena[uint64](mem.Checked[uint64](true), mem.WithShards[uint64](8))
			dom := mk(arena)
			round := func(h *reclaim.Handle) {
				var cell atomic.Uint64
				for i := 0; i < retires; i++ {
					ref, p := arena.AllocAt(h.ID())
					*p = uint64(i)
					dom.OnAlloc(ref)
					if old := mem.Ref(cell.Swap(uint64(ref))); !old.IsNil() {
						h.Retire(old)
					}
				}
				h.Retire(mem.Ref(cell.Swap(0)))
			}
			check := func(when string, want int64) {
				t.Helper()
				if s := dom.Stats(); s.Pending != 0 || s.Retired != want || s.Freed != want {
					t.Fatalf("%s: pending=%d retired/freed=%d/%d, want 0 and %d/%d",
						when, s.Pending, s.Retired, s.Freed, want, want)
				}
				if st := arena.Stats(); st.Live != 0 || st.Faults != 0 {
					t.Fatalf("%s: arena %+v", when, st)
				}
			}

			h := dom.Acquire()
			round(h)
			h.Release() // pooled, residue stays with the slot
			dom.(interface{ Close() }).Close()
			check("after Close with pooled residue", retires)

			h = dom.Acquire()
			round(h)
			h.Unregister()
			dom.Drain()
			check("after a second round past Close", 2*retires)
		})
	}
}
