package reclaim_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ebr"
	"repro/internal/hp"
	"repro/internal/hyaline"
	"repro/internal/ibr"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
	"repro/internal/urcu"
	"repro/internal/wfe"
)

// Tests for the background reclamation offload pipeline: safety under
// deterministic schedules with the freed-while-protected oracle armed,
// deterministic shutdown (Close leaves Pending == 0, no goroutine leaks),
// conservation under concurrent writers, and the Drain folding of
// pooled-handle residue (with and without the pipeline in the way).

// offloadSchemes is the roster of offload-capable schemes — every scheme
// with an on-demand scan pass. RC reclaims inline through refcounts and
// leak never reclaims; both ignore Config.Offload by construction.
func offloadSchemes(cfg reclaim.Config) map[string]func(a reclaim.Allocator) reclaim.Domain {
	return map[string]func(a reclaim.Allocator) reclaim.Domain{
		"HE":         func(a reclaim.Allocator) reclaim.Domain { return core.New(a, cfg) },
		"HE-minmax":  func(a reclaim.Allocator) reclaim.Domain { return core.New(a, cfg, core.WithMinMax(true)) },
		"HP":         func(a reclaim.Allocator) reclaim.Domain { return hp.New(a, cfg) },
		"EBR":        func(a reclaim.Allocator) reclaim.Domain { return ebr.New(a, cfg) },
		"URCU":       func(a reclaim.Allocator) reclaim.Domain { return urcu.New(a, cfg) },
		"IBR":        func(a reclaim.Allocator) reclaim.Domain { return ibr.New(a, cfg) },
		"hyaline-1r": func(a reclaim.Allocator) reclaim.Domain { return hyaline.New(a, cfg) },
		"WFE": func(a reclaim.Allocator) reclaim.Domain {
			return wfe.New(a, cfg, wfe.WithMaxTries(1))
		},
	}
}

type offFaultLog struct {
	mu   sync.Mutex
	msgs []string
}

func (f *offFaultLog) record(msg string) {
	f.mu.Lock()
	f.msgs = append(f.msgs, msg)
	f.mu.Unlock()
}

func (f *offFaultLog) take() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.msgs
	f.msgs = nil
	return out
}

func offSplitmix(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// TestOffloadConformanceSched runs the hecheck shared-cell safety workload
// — validated protections registered with the freed-while-protected oracle,
// CheckAccess liveness asserts, a swapping/retiring writer — under seeded
// deterministic schedules with the offload pipeline enabled for every
// capable scheme. The scan threshold is set to 1, so every retire hands its
// batch to a background reclaimer; the reclaimers run as schedule bystanders and
// every free they issue still crosses the oracle's FreeGuard hook.
func TestOffloadConformanceSched(t *testing.T) {
	const (
		numCells = 3
		workers  = 3
		ops      = 8
	)
	cfg := reclaim.Config{
		MaxThreads: workers + 1,
		Slots:      2,
		Offload:    reclaim.OffloadConfig{Workers: 2, WatermarkBytes: 1 << 40},
	}
	for name, mk := range offloadSchemes(cfg) {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				var faults offFaultLog
				arena := mem.NewArena[uint64](
					mem.Checked[uint64](true),
					mem.WithShards[uint64](workers+4),
					mem.WithFaultHandler[uint64](faults.record),
				)
				dom := mk(arena)
				dom.(interface{ SetScanThreshold(int) }).SetScanThreshold(1)
				oracle := schedtest.NewOracle()
				dom.(interface{ SetFreeGuard(func(mem.Ref)) }).SetFreeGuard(oracle.FreeGuard)

				cells := make([]atomic.Uint64, numCells)
				setup := dom.Register()
				for i := range cells {
					ref, p := arena.Alloc()
					*p = uint64(i)
					dom.OnAlloc(ref)
					cells[i].Store(uint64(ref))
				}
				handles := make([]*reclaim.Handle, workers)
				for w := range handles {
					handles[w] = dom.Register()
				}

				reader := func(w int) func() {
					h := handles[w]
					return func() {
						rng := seed<<8 ^ uint64(w)
						for k := 0; k < ops; k++ {
							dom.BeginOp(h)
							ci := int(offSplitmix(&rng) % numCells)
							ref := h.Protect(0, &cells[ci]).Unmarked()
							if !ref.IsNil() && cells[ci].Load() == uint64(ref) {
								oracle.Hold(w, 0, ref)
								cj := int(offSplitmix(&rng) % numCells)
								ref2 := h.Protect(1, &cells[cj]).Unmarked()
								if !ref2.IsNil() && cells[cj].Load() == uint64(ref2) {
									oracle.Hold(w, 1, ref2)
									arena.CheckAccess(ref2)
								}
								arena.CheckAccess(ref)
							}
							oracle.DropAll(w)
							dom.EndOp(h)
						}
					}
				}
				writer := func(w int) func() {
					h := handles[w]
					return func() {
						rng := seed<<8 ^ uint64(w)
						for k := 0; k < ops; k++ {
							ci := int(offSplitmix(&rng) % numCells)
							old := mem.Ref(cells[ci].Load())
							ref, p := arena.AllocAt(h.ID())
							*p = offSplitmix(&rng)
							dom.OnAlloc(ref)
							if cells[ci].CompareAndSwap(uint64(old), uint64(ref)) {
								h.Retire(old)
							} else {
								arena.FreeAt(h.ID(), ref) // never published
							}
						}
					}
				}

				fns := make([]func(), workers)
				for w := 0; w < workers-1; w++ {
					fns[w] = reader(w)
				}
				fns[workers-1] = writer(workers - 1)

				if err := schedtest.Run(schedtest.Config{Seed: seed, SwitchPct: 30}, fns...); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for _, h := range handles {
					h.Unregister()
				}
				setup.Unregister()
				dom.Drain()

				if v := oracle.Violations(); len(v) > 0 {
					t.Fatalf("seed %d: oracle violations: %v", seed, v)
				}
				if f := faults.take(); len(f) > 0 {
					t.Fatalf("seed %d: arena faults: %v", seed, f)
				}
				if s := dom.Stats(); s.Pending != 0 {
					t.Fatalf("seed %d: pending after drain: %+v", seed, s)
				}
			}
		})
	}
}

// TestOffloadCloseShutdown drives a retire-heavy single-session workload
// through the pipeline and asserts that Close drains deterministically:
// Pending == 0, every retire accounted as freed, the handoff counter shows
// the pipeline actually ran, and the reclaimer goroutines are gone
// (runtime.NumGoroutine bracketing).
func TestOffloadCloseShutdown(t *testing.T) {
	const retires = 400
	cfg := reclaim.Config{
		MaxThreads: 4,
		Slots:      2,
		ScanR:      1, // a handoff every 1·issued·2 retires: many handoffs
		Offload:    reclaim.OffloadConfig{Workers: 2, WatermarkBytes: 1 << 40},
	}
	for name, mk := range offloadSchemes(cfg) {
		t.Run(name, func(t *testing.T) {
			runtime.GC() // settle any exiting goroutines from prior subtests
			baseline := runtime.NumGoroutine()

			arena := mem.NewArena[uint64](mem.Checked[uint64](true), mem.WithShards[uint64](8))
			dom := mk(arena)
			h := dom.Register()
			var cell atomic.Uint64
			for i := 0; i < retires; i++ {
				ref, p := arena.AllocAt(h.ID())
				*p = uint64(i)
				dom.OnAlloc(ref)
				old := mem.Ref(cell.Swap(uint64(ref)))
				if !old.IsNil() {
					h.Retire(old)
				}
			}
			h.Retire(mem.Ref(cell.Swap(0)))
			if off := dom.(interface{ OffloadStats() obs.OffloadStats }).OffloadStats(); off.Handoffs == 0 {
				t.Fatalf("pipeline never ran: %+v", off)
			}
			h.Unregister()
			dom.(interface{ Close() }).Close()

			s := dom.Stats()
			if s.Pending != 0 {
				t.Fatalf("pending after Close: %+v", s)
			}
			if s.Retired != retires || s.Freed != retires {
				t.Fatalf("retired/freed = %d/%d, want %d/%d", s.Retired, s.Freed, retires, retires)
			}
			if got := arena.Stats().Faults; got != 0 {
				t.Fatalf("faults: %d", got)
			}

			// The workers unregister and exit before Close returns (the
			// shutdown waits on them); give the runtime a moment to retire
			// the goroutines themselves.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Fatalf("goroutine leak: %d > baseline %d", n, baseline)
			}
		})
	}
}

// TestOffloadConservationUnderLoad runs three free-running writer sessions
// retiring through a two-worker pipeline and pins conservation across
// concurrent handoffs: after Close no retired object is lost (Pending == 0,
// Retired == Freed), the checked arena saw no fault and holds no live
// block, and every reclaimer goroutine is gone (NumGoroutine bracketing).
// Run under -race this is the multi-producer handoff interleaving test.
func TestOffloadConservationUnderLoad(t *testing.T) {
	const (
		writers = 3
		cells   = 4
		retires = 20000 // shared target; each writer stops once it is met
	)
	cfg := reclaim.Config{
		MaxThreads: writers + 1,
		Slots:      2,
		ScanR:      1,
		Offload:    reclaim.OffloadConfig{Workers: 2, WatermarkBytes: 1 << 40},
	}

	runtime.GC() // settle goroutines from prior tests
	baseline := runtime.NumGoroutine()

	arena := mem.NewArena[uint64](mem.Checked[uint64](true), mem.WithShards[uint64](writers+4))
	dom := core.New(arena, cfg)

	var slots [cells]atomic.Uint64
	var retired atomic.Int64
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := dom.Register()
			defer h.Unregister()
			rng := uint64(w)*0x9E3779B97F4A7C15 + 1
			for retired.Load() < retires {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				ci := int(rng % cells)
				ref, p := arena.AllocAt(h.ID())
				*p = rng
				dom.OnAlloc(ref)
				old := mem.Ref(slots[ci].Swap(uint64(ref)))
				if !old.IsNil() {
					h.Retire(old)
					retired.Add(1)
				}
			}
		}(w)
	}

	wg.Wait()

	// Fold the cells' final occupants so the ledger closes.
	fin := dom.Register()
	for ci := range slots {
		if old := mem.Ref(slots[ci].Swap(0)); !old.IsNil() {
			fin.Retire(old)
			retired.Add(1)
		}
	}
	fin.Unregister()
	if off := dom.OffloadStats(); off.Handoffs == 0 {
		t.Fatalf("pipeline never ran: %+v", off)
	}
	dom.Close()

	s := dom.Stats()
	if s.Pending != 0 {
		t.Fatalf("pending after close: %+v", s)
	}
	if want := retired.Load(); s.Retired != want || s.Freed != want {
		t.Fatalf("retired/freed = %d/%d, want %d/%d (objects lost across handoffs)",
			s.Retired, s.Freed, want, want)
	}
	if got := arena.Stats().Faults; got != 0 {
		t.Fatalf("arena faults: %d", got)
	}
	if live := arena.Stats().Live; live != 0 {
		t.Fatalf("arena live after close: %d", live)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine leak: %d > baseline %d", n, baseline)
	}
}

// TestOffloadAfterCloseFallsBackInline pins the terminal semantics: a
// domain keeps working after Close, with every subsequent retire reclaimed
// inline (the pipeline never restarts).
func TestOffloadAfterCloseFallsBackInline(t *testing.T) {
	cfg := reclaim.Config{
		MaxThreads: 2,
		Slots:      2,
		Offload:    reclaim.OffloadConfig{Workers: 1, WatermarkBytes: 1 << 40},
	}
	arena := mem.NewArena[uint64](mem.Checked[uint64](true))
	dom := core.New(arena, cfg)
	dom.SetScanThreshold(1)
	h := dom.Register()
	ref, _ := arena.Alloc()
	dom.OnAlloc(ref)
	h.Retire(ref)
	dom.Close()

	for i := 0; i < 10; i++ {
		ref, _ := arena.Alloc()
		dom.OnAlloc(ref)
		h.Retire(ref) // threshold 1: must scan inline now
	}
	h.Unregister()
	dom.Drain()
	if s := dom.Stats(); s.Pending != 0 || s.Retired != 11 || s.Freed != 11 {
		t.Fatalf("post-Close accounting: %+v", s)
	}
}

// TestDrainFoldsPooledHandleResidue is the regression test for the
// unregistered-but-pooled residue path: a session retires below the scan
// threshold, parks its handle in the pool (Release), and Drain must still
// fold the slot's retired list — Stats.Pending == 0, frees accounted —
// whether reclamation is inline or routed through the offload pipeline
// (where the residue may be sitting in a handed-off queue segment rather
// than the slot list).
func TestDrainFoldsPooledHandleResidue(t *testing.T) {
	cases := map[string]reclaim.OffloadConfig{
		"inline":  {},
		"offload": {Workers: 1, WatermarkBytes: 1 << 40},
	}
	for mode, oc := range cases {
		cfg := reclaim.Config{MaxThreads: 4, Slots: 2, ScanR: 16, Offload: oc} // threshold 16·1·2 = 32 for one session
		for name, mk := range offloadSchemes(cfg) {
			t.Run(mode+"/"+name, func(t *testing.T) {
				arena := mem.NewArena[uint64](mem.Checked[uint64](true), mem.WithShards[uint64](8))
				dom := mk(arena)
				h := dom.Acquire()
				var cell atomic.Uint64
				const retires = 10 // well below the threshold of 32
				for i := 0; i < retires; i++ {
					ref, p := arena.AllocAt(h.ID())
					*p = uint64(i)
					dom.OnAlloc(ref)
					old := mem.Ref(cell.Swap(uint64(ref)))
					if !old.IsNil() {
						h.Retire(old)
					}
				}
				h.Retire(mem.Ref(cell.Swap(0)))
				h.Release() // pooled, residue stays with the slot
				dom.Drain()
				s := dom.Stats()
				if s.Pending != 0 {
					t.Fatalf("pending after drain with pooled residue: %+v", s)
				}
				if s.Retired != retires || s.Freed != retires {
					t.Fatalf("retired/freed = %d/%d, want %d/%d", s.Retired, s.Freed, retires, retires)
				}
				if live := arena.Stats().Live; live != 0 {
					t.Fatalf("arena live after drain: %d", live)
				}
			})
		}
	}
}
