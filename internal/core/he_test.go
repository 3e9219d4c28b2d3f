package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/internal/reclaim"
)

// tnode is the payload used throughout the scheme tests.
type tnode struct {
	val  uint64
	next atomic.Uint64
}

const poisonVal = 0xDEADDEADDEADDEAD

func testArena() *mem.Arena[tnode] {
	return mem.NewArena[tnode](
		mem.Checked[tnode](true),
		mem.WithPoison[tnode](func(n *tnode) { n.val = poisonVal }),
	)
}

func newHE(arena *mem.Arena[tnode], threads, slots int, opts ...Option) *Eras {
	return New(arena, reclaim.Config{MaxThreads: threads, Slots: slots}, opts...)
}

func TestEraClockStartsAtOne(t *testing.T) {
	d := newHE(testArena(), 2, 3)
	if d.Era() != 1 {
		t.Fatalf("Era = %d, want 1 (paper: eraClock = {1})", d.Era())
	}
	if d.Name() != "HE" {
		t.Fatalf("Name = %q", d.Name())
	}
}

func TestOnAllocStampsBirthEra(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 2, 3)
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	if got := arena.Header(ref).BirthEra; got != 1 {
		t.Fatalf("BirthEra = %d, want 1", got)
	}
}

func TestRetireUnprotectedFreesImmediately(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 2, 3)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	h := d.Register()
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	d.Retire(h, ref)
	s := d.Stats()
	if s.Freed != 1 || s.Pending != 0 {
		t.Fatalf("unprotected object not freed: %+v", s)
	}
	if s.EraClock != 2 {
		t.Fatalf("eraClock should have advanced to 2, got %d", s.EraClock)
	}
}

func TestRetireAdvancesClockOnlyWhenUnchanged(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 2, 3)
	d.SetScanThreshold(1) // Algorithm 3: scan, and so advance, on every retire
	h := d.Register()
	for i := 0; i < 5; i++ {
		ref, _ := arena.Alloc()
		d.OnAlloc(ref)
		d.Retire(h, ref)
	}
	// Single retirer: exactly one advance per retire.
	if got := d.Era(); got != 6 {
		t.Fatalf("Era = %d, want 6", got)
	}
}

func TestProtectPublishesObservedEra(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 2, 3)
	h := d.Register()
	ref, n := arena.Alloc()
	n.val = 7
	d.OnAlloc(ref)
	var cell atomic.Uint64
	cell.Store(uint64(ref))

	got := d.Protect(h, 0, &cell)
	if got != ref {
		t.Fatalf("Protect returned %v, want %v", got, ref)
	}
	if arena.Get(got).val != 7 {
		t.Fatal("protected deref failed")
	}
	if h.Words[0].Load() != 1 {
		t.Fatalf("published era = %d, want 1", h.Words[0].Load())
	}
}

func TestProtectFastPathSkipsStore(t *testing.T) {
	arena := testArena()
	ins := reclaim.NewInstrument(2)
	d := New(arena, reclaim.Config{MaxThreads: 2, Slots: 3, Instrument: ins})
	h := d.Register()
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	var cell atomic.Uint64
	cell.Store(uint64(ref))

	d.Protect(h, 0, &cell) // publishes era 1
	ins.Reset()
	for i := 0; i < 10; i++ {
		d.Protect(h, 0, &cell) // era unchanged: fast path
	}
	s := ins.Snapshot()
	if s.Stores != 0 {
		t.Fatalf("fast path issued %d stores, want 0", s.Stores)
	}
	if s.PerVisitLoads() != 2 {
		t.Fatalf("fast path loads/visit = %v, want 2 (paper: two seq-cst loads)", s.PerVisitLoads())
	}
}

func TestProtectRepublishesAfterEraChange(t *testing.T) {
	arena := testArena()
	ins := reclaim.NewInstrument(2)
	d := New(arena, reclaim.Config{MaxThreads: 2, Slots: 3, Instrument: ins})
	d.SetScanThreshold(1) // Algorithm 3: scan, and so advance, on every retire
	reader := d.Register()
	writer := d.Register()
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	var cell atomic.Uint64
	cell.Store(uint64(ref))

	d.Protect(reader, 0, &cell) // era 1 published
	// Writer retires an unrelated node, advancing the clock.
	other, _ := arena.Alloc()
	d.OnAlloc(other)
	d.Retire(writer, other)

	ins.Reset()
	d.Protect(reader, 0, &cell)
	if s := ins.Snapshot(); s.Stores != 1 {
		t.Fatalf("expected exactly one republication store, got %d", s.Stores)
	}
	if reader.Words[0].Load() != d.Era() {
		t.Fatal("republished era must equal current clock")
	}
}

func TestProtectPreservesMarkBit(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 2, 3)
	h := d.Register()
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	var cell atomic.Uint64
	cell.Store(uint64(ref.WithMark()))
	got := d.Protect(h, 0, &cell)
	if !got.Marked() || got.Unmarked() != ref {
		t.Fatalf("mark bit mangled: %v", got)
	}
}

func TestReaderBlocksReclamationOfCoveredLifetime(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 2, 3)
	reader := d.Register()
	writer := d.Register()

	ref, _ := arena.Alloc()
	d.OnAlloc(ref) // BirthEra = 1
	var cell atomic.Uint64
	cell.Store(uint64(ref))
	d.Protect(reader, 0, &cell) // reader publishes era 1

	cell.Store(uint64(mem.NilRef)) // unlink
	d.Retire(writer, ref)          // RetireEra = 1, clock -> 2
	if s := d.Stats(); s.Pending != 1 || s.Freed != 0 {
		t.Fatalf("protected object must stay pending: %+v", s)
	}

	d.Clear(reader)
	d.Scan(writer)
	if s := d.Stats(); s.Pending != 0 || s.Freed != 1 {
		t.Fatalf("object must be freed after Clear: %+v", s)
	}
}

// TestFig2Scenario replays the paper's Figure 2 schematic step by step:
// list A,B,D; clock 3; a reader published era 2. B is removed (delEra 3,
// clock->4) and cannot be deleted; C is inserted (newEra 4); C is removed
// (delEra 4, clock->5) and CAN be deleted immediately because era 2 does
// not intersect [4,4].
func TestFig2Scenario(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 4, 3)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	reader := d.Register()
	writer := d.Register()

	// Pre-step: drive the clock to 3 as in the schematic.
	d.SetEraClock(2)
	refB, _ := arena.Alloc()
	arena.Header(refB).BirthEra = 1 // B existed before the schematic starts
	d.SetEraClock(3)

	// Reader published era 2 (it protected something at era 2).
	reader.Words[0].Store(2)
	reader.Held[0] = 2

	// Step 2: remove B.
	d.Retire(writer, refB)
	if arena.Header(refB).RetireEra != 3 {
		t.Fatalf("B.delEra = %d, want 3", arena.Header(refB).RetireEra)
	}
	if d.Era() != 4 {
		t.Fatalf("clock = %d, want 4", d.Era())
	}
	if s := d.Stats(); s.Freed != 0 {
		t.Fatal("B must not be deleted: reader at era 2 may access it")
	}

	// Step 3: insert C with newEra 4.
	refC, _ := arena.Alloc()
	d.OnAlloc(refC)
	if arena.Header(refC).BirthEra != 4 {
		t.Fatalf("C.newEra = %d, want 4", arena.Header(refC).BirthEra)
	}

	// Step 4: remove C; deletable immediately despite the era-2 reader.
	d.Retire(writer, refC)
	if arena.Header(refC).RetireEra != 4 {
		t.Fatalf("C.delEra = %d, want 4", arena.Header(refC).RetireEra)
	}
	if d.Era() != 5 {
		t.Fatalf("clock = %d, want 5", d.Era())
	}
	if !arena.Validate(refB) {
		t.Fatal("B must still be allocated (reader at era 2)")
	}
	if arena.Validate(refC) {
		t.Fatal("C must have been freed immediately")
	}
	if s := d.Stats(); s.Freed != 1 || s.Pending != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestStalledReaderDoesNotBlockNewReclamation is the essence of Appendix A
// (Fig. 6): a reader stuck at an ancient era cannot prevent reclamation of
// objects born after it.
func TestStalledReaderDoesNotBlockNewReclamation(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 4, 3)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	reader := d.Register()
	writer := d.Register()

	old, _ := arena.Alloc()
	d.OnAlloc(old)
	var cell atomic.Uint64
	cell.Store(uint64(old))
	d.Protect(reader, 0, &cell) // reader stalls holding era 1 forever

	d.Retire(writer, old) // pinned by the stalled reader
	for i := 0; i < 100; i++ {
		ref, _ := arena.Alloc()
		d.OnAlloc(ref) // born at era >= 2 > reader's era
		d.Retire(writer, ref)
	}
	s := d.Stats()
	if s.Freed != 100 {
		t.Fatalf("new objects must all be freed, got %d", s.Freed)
	}
	if s.Pending != 1 {
		t.Fatalf("only the covered object may pend, got %d", s.Pending)
	}
}

func TestClearIsIdempotentAndResetsFastPath(t *testing.T) {
	arena := testArena()
	ins := reclaim.NewInstrument(2)
	d := New(arena, reclaim.Config{MaxThreads: 2, Slots: 3, Instrument: ins})
	h := d.Register()
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	var cell atomic.Uint64
	cell.Store(uint64(ref))

	d.Protect(h, 0, &cell)
	d.Clear(h)
	d.Clear(h) // idempotent
	for i := 0; i < 3; i++ {
		if got := h.Words[i].Load(); got != noneEra {
			t.Fatalf("slot %d not cleared: %d", i, got)
		}
	}
	// After Clear, the next Protect must republish (prevEra was reset).
	ins.Reset()
	d.Protect(h, 0, &cell)
	if s := ins.Snapshot(); s.Stores != 1 {
		t.Fatalf("expected republication after Clear, stores = %d", s.Stores)
	}
}

func TestKAdvanceDelaysClock(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 2, 3, WithAdvanceEvery(4))
	h := d.Register()
	for i := 1; i <= 8; i++ {
		ref, _ := arena.Alloc()
		d.OnAlloc(ref)
		d.Retire(h, ref)
		wantEra := uint64(1 + i/4)
		if d.Era() != wantEra {
			t.Fatalf("after %d retires Era = %d, want %d", i, d.Era(), wantEra)
		}
	}
}

// TestKAdvanceOneIsDefaultBehaviour checks that a k below 2 is ignored,
// leaving k = 1: the default cadence of one advance per scan
// (TestDefaultTriggerAdvancesOncePerScan).
func TestKAdvanceOneIsDefaultBehaviour(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 2, 3, WithAdvanceEvery(0)) // invalid k ignored
	if d.advanceEvery != 1 {
		t.Fatalf("advanceEvery = %d, want 1", d.advanceEvery)
	}
}

// retireFresh allocates, stamps and retires one object on h.
func retireFresh(d *Eras, arena *mem.Arena[tnode], h *reclaim.Handle) {
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	d.Retire(h, ref)
}

// headerHook is an allocator whose next Header call runs a hook first: a
// test uses it to run another session's retire between Retire's load of
// the clock and its advance.
type headerHook struct {
	*mem.Arena[tnode]
	hook func()
}

func (a *headerHook) Header(ref mem.Ref) *mem.Header {
	if f := a.hook; f != nil {
		a.hook = nil
		f()
	}
	return a.Arena.Header(ref)
}

// TestDefaultTriggerAdvancesOncePerScan checks the default cadence: at the
// amortized trigger the clock advances on the retire that scans, not on
// every retire, the paper's guard still keeps a second session from
// advancing a clock it saw move, and k-advance keeps its own cadence even
// when every retire scans (TestKAdvanceDelaysClock covers the default
// trigger).
func TestDefaultTriggerAdvancesOncePerScan(t *testing.T) {
	t.Run("one session", func(t *testing.T) {
		arena := testArena()
		d := newHE(arena, 2, 3)
		h := d.Register()
		for i := 0; i < 20; i++ {
			retireFresh(d, arena, h)
		}
		s := d.Stats()
		if s.Scans != 6 { // one session, 3 slots: a scan every 3 retires
			t.Fatalf("Scans = %d after 20 retires, want 6", s.Scans)
		}
		if d.Era()-1 != uint64(s.Scans) {
			t.Fatalf("Era = %d after %d scans, want one advance per scan", d.Era(), s.Scans)
		}
	})
	t.Run("moved clock", func(t *testing.T) {
		arena := testArena()
		alloc := &headerHook{Arena: arena}
		d := New(alloc, reclaim.Config{MaxThreads: 2, Slots: 3})
		a, b := d.Register(), d.Register()
		// Two sessions of 3 slots scan every 6 retires: leave both one short.
		for i := 0; i < 5; i++ {
			retireFresh(d, arena, a)
			retireFresh(d, arena, b)
		}
		if d.Era() != 1 || d.Stats().Scans != 0 {
			t.Fatalf("Era = %d, Scans = %d before any trigger, want 1 and 0", d.Era(), d.Stats().Scans)
		}
		// a's sixth retire loads era 1; before its guard, b's sixth retire
		// scans and advances to 2. a must then scan without advancing.
		ref, _ := arena.Alloc()
		d.OnAlloc(ref)
		alloc.hook = func() { retireFresh(d, arena, b) }
		d.Retire(a, ref)
		if s := d.Stats(); s.Scans != 2 || d.Era() != 2 {
			t.Fatalf("Era = %d, Scans = %d, want 2 and 2: a session advanced a clock it saw move", d.Era(), s.Scans)
		}
		if got := arena.Header(ref).RetireEra; got != 1 {
			t.Fatalf("RetireEra = %d, want 1", got)
		}
	})
	t.Run("k-advance", func(t *testing.T) {
		arena := testArena()
		d := newHE(arena, 2, 3, WithAdvanceEvery(4))
		d.SetScanThreshold(1) // every retire scans; only every 4th advances
		h := d.Register()
		for i := 1; i <= 12; i++ {
			retireFresh(d, arena, h)
			if want := uint64(1 + i/4); d.Era() != want {
				t.Fatalf("after %d retires Era = %d, want %d", i, d.Era(), want)
			}
		}
		if s := d.Stats(); s.Scans != 12 {
			t.Fatalf("Scans = %d after 12 retires, want 12", s.Scans)
		}
	})
}

func TestMinMaxModeProtectsRange(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 2, 4, WithMinMax(true))
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	if d.Name() != "HE-minmax" {
		t.Fatalf("Name = %q", d.Name())
	}
	reader := d.Register()
	writer := d.Register()

	// Reader protects nodes at eras 2 and 5: publishes min=2, max=5.
	var cells [2]atomic.Uint64
	d.SetEraClock(2)
	r1, _ := arena.Alloc()
	d.OnAlloc(r1)
	cells[0].Store(uint64(r1))
	d.Protect(reader, 0, &cells[0])
	d.SetEraClock(5)
	r2, _ := arena.Alloc()
	d.OnAlloc(r2)
	cells[1].Store(uint64(r2))
	d.Protect(reader, 1, &cells[1])

	if lo, hi := reader.Words[0].Load(), reader.Words[1].Load(); lo != 2 || hi != 5 {
		t.Fatalf("published min/max = %d/%d, want 2/5", lo, hi)
	}

	// An object with lifetime [3,4] (inside the range) must be protected,
	// even though no exact era 3 or 4 was published individually.
	mid, _ := arena.Alloc()
	h := arena.Header(mid)
	h.BirthEra = 3
	d.SetEraClock(4)
	d.Retire(writer, mid)
	if s := d.Stats(); s.Freed != 0 || s.Pending != 1 {
		t.Fatalf("mid-lifetime object must pend under min/max: %+v", s)
	}

	// An object born after the max is reclaimable.
	d.SetEraClock(9)
	late, _ := arena.Alloc()
	d.OnAlloc(late)
	d.Retire(writer, late)
	if s := d.Stats(); s.Freed != 1 {
		t.Fatalf("late object must be freed: %+v", s)
	}

	// An object whose lifetime encloses the whole range must be protected.
	enclosing, _ := arena.Alloc()
	arena.Header(enclosing).BirthEra = 1
	d.Retire(writer, enclosing) // delEra = current clock >= 10 > max
	s := d.Stats()
	if s.Pending != 2 {
		t.Fatalf("enclosing object must pend: %+v", s)
	}

	// Clearing the reader releases everything on the next scan.
	d.Clear(reader)
	d.Scan(writer)
	if s := d.Stats(); s.Pending != 0 {
		t.Fatalf("all pending objects must free after Clear: %+v", s)
	}
}

func TestMinMaxClearPublishesNone(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 2, 4, WithMinMax(true))
	h := d.Register()
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	var cell atomic.Uint64
	cell.Store(uint64(ref))
	d.Protect(h, 0, &cell)
	d.Clear(h)
	if h.Words[0].Load() != noneEra || h.Words[1].Load() != noneEra {
		t.Fatal("min/max slots not cleared")
	}
}

// TestEraClockNearOverflow documents the Appendix-B limitation: the
// implementation is "incapable of handling" clock overflow, relying on the
// 64-bit span (195+ years of continuous increments). We verify the clock is
// a plain 64-bit counter with no wrap handling — behaviour is well-defined
// (monotone increments) right up to the last representable era.
func TestEraClockNearOverflow(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 2, 3)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	h := d.Register()
	d.SetEraClock(math.MaxUint64 - 2)
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	if arena.Header(ref).BirthEra != math.MaxUint64-2 {
		t.Fatal("birth stamp near overflow mangled")
	}
	d.Retire(h, ref)
	if d.Era() != math.MaxUint64-1 {
		t.Fatalf("Era = %d, want MaxUint64-1", d.Era())
	}
	if s := d.Stats(); s.Freed != 1 {
		t.Fatalf("retire near overflow must still reclaim: %+v", s)
	}
}

// TestEquation1BoundUnderChurn checks the paper's §3.1 bound: with one
// stalled reader holding era E, the unreclaimed set can never exceed the
// number of objects whose lifetime includes E — new objects never pend.
func TestEquation1BoundUnderChurn(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 4, 3)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	reader := d.Register()
	writer := d.Register()

	// liveAtE objects alive when the reader publishes era E.
	const liveAtE = 10
	refs := make([]mem.Ref, liveAtE)
	for i := range refs {
		refs[i], _ = arena.Alloc()
		d.OnAlloc(refs[i])
	}
	var cell atomic.Uint64
	cell.Store(uint64(refs[0]))
	d.Protect(reader, 0, &cell) // publishes era 1; all liveAtE have BirthEra 1

	// Retire all of them (lifetimes cover era 1) plus heavy churn of new
	// objects; pending must never exceed liveAtE.
	for _, r := range refs {
		d.Retire(writer, r)
	}
	for i := 0; i < 500; i++ {
		r, _ := arena.Alloc()
		d.OnAlloc(r)
		d.Retire(writer, r)
		if p := d.Stats().Pending; p > liveAtE {
			t.Fatalf("pending %d exceeds Equation-1 bound %d", p, liveAtE)
		}
	}
	// PeakPending is sampled between PushRetired and the scan, so the
	// object in flight counts transiently: the bound is liveAtE + 1.
	if s := d.Stats(); s.PeakPending > liveAtE+1 {
		t.Fatalf("peak pending %d exceeds bound %d", s.PeakPending, liveAtE+1)
	}
}

func TestDrainFreesPending(t *testing.T) {
	arena := testArena()
	d := newHE(arena, 2, 3)
	reader := d.Register()
	writer := d.Register()
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	var cell atomic.Uint64
	cell.Store(uint64(ref))
	d.Protect(reader, 0, &cell)
	d.Retire(writer, ref)
	if d.Stats().Pending != 1 {
		t.Fatal("setup failed")
	}
	d.Clear(reader)
	d.Drain()
	if s := d.Stats(); s.Pending != 0 {
		t.Fatalf("Drain left pending: %+v", s)
	}
	if arena.Stats().Live != 0 {
		t.Fatal("arena leaked")
	}
}

// TestConcurrentProtectRetireStress hammers a single shared cell with
// concurrent readers and swapping writers over a checked, poisoned arena.
// Any unsafe reclamation surfaces as a generation fault (panic) or poison.
func TestConcurrentProtectRetireStress(t *testing.T) {
	arena := testArena()
	const threads = 8
	d := newHE(arena, threads, 1)
	var cell atomic.Uint64
	seed, _ := arena.Alloc()
	d.OnAlloc(seed)
	arena.Get(seed).val = 42
	cell.Store(uint64(seed))

	iters := 4000
	if testing.Short() {
		iters = 500
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(writer bool) {
			defer wg.Done()
			h := d.Register()
			defer d.Unregister(h)
			for i := 0; i < iters; i++ {
				if writer {
					nref, n := arena.Alloc()
					n.val = 42
					d.OnAlloc(nref)
					old := mem.Ref(cell.Swap(uint64(nref)))
					d.Retire(h, old)
				} else {
					got := d.Protect(h, 0, &cell)
					if v := arena.Get(got).val; v != 42 {
						panic("reader observed poisoned or torn value")
					}
					d.EndOp(h)
				}
			}
			// Writers leave their pending list for Drain.
		}(w%2 == 0)
	}
	wg.Wait()
	d.Drain()
	s := d.Stats()
	if s.Pending != 0 {
		t.Fatalf("pending after drain: %+v", s)
	}
	if f := arena.Stats().Faults; f != 0 {
		t.Fatalf("memory faults detected: %d", f)
	}
}

// TestHandleProtectRunsEraLoop drives Algorithm 2 through the session
// handle, the path structures take, in both publication modes: a moved
// clock is published before Handle.Protect returns, and a walk at a stable
// era costs exactly the paper's two loads and no store per node.
func TestHandleProtectRunsEraLoop(t *testing.T) {
	for _, tc := range []struct {
		name   string
		minMax bool
	}{{"HE", false}, {"HE-minmax", true}} {
		minMax := tc.minMax
		t.Run(tc.name, func(t *testing.T) {
			arena := testArena()
			ins := reclaim.NewInstrument(2)
			d := New(arena, reclaim.Config{MaxThreads: 2, Slots: 3, Instrument: ins}, WithMinMax(minMax))
			h := d.Register()

			// A chain of nodes, each cell naming the next, like a list.
			const n = 50
			var head atomic.Uint64
			for i := 0; i < n; i++ {
				ref, node := arena.Alloc()
				node.next.Store(head.Load())
				d.OnAlloc(ref)
				head.Store(uint64(ref))
			}
			walk := func() int {
				visits, src := 0, &head
				for {
					ref := h.Protect(visits%3, src)
					if ref.IsNil() {
						return visits
					}
					visits++
					src = &arena.Get(ref).next
				}
			}

			h.BeginOp()
			walk() // publishes era 1 on every index
			d.SetEraClock(7)
			if got := h.Protect(1, &head); got != mem.Ref(head.Load()) {
				t.Fatalf("Protect returned %v, want %v", got, mem.Ref(head.Load()))
			}
			if minMax {
				if lo, hi := h.Words[0].Load(), h.Words[1].Load(); lo != 1 || hi != 7 || h.Lo != 1 || h.Hi != 7 {
					t.Fatalf("published [%d, %d], mirror [%d, %d], want [1, 7]", lo, hi, h.Lo, h.Hi)
				}
			} else if got := h.Words[1].Load(); got != 7 {
				t.Fatalf("Words[1] = %d after the clock moved to 7, want 7", got)
			}
			if got := h.Held[1]; got != 7 {
				t.Fatalf("Held[1] = %d, want 7", got)
			}

			walk() // republishes era 7 where it is not yet held
			ins.Reset()
			nodes := walk()
			s := ins.Snapshot()
			// The nil load at the tail is a visit too, but it returns
			// before the clock load: 2 loads per node and 1 for the tail.
			if s.Visits != int64(nodes+1) || s.Loads != int64(2*nodes+1) || s.Stores != 0 || s.RMWs != 0 {
				t.Fatalf("stable-era walk of %d nodes counted %+v, want %d visits, %d loads and 0 stores", nodes, s, nodes+1, 2*nodes+1)
			}
			h.EndOp()
		})
	}
}
