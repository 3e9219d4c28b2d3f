package hyaline

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/internal/reclaim"
)

type tnode struct {
	val  uint64
	next atomic.Uint64
}

func testArena() *mem.Arena[tnode] {
	return mem.NewArena[tnode](
		mem.Checked[tnode](true),
		mem.WithPoison[tnode](func(n *tnode) { n.val = 0xDEAD }),
	)
}

func newHyaline(arena *mem.Arena[tnode], threads int, opts ...Option) *Domain {
	return New(arena, reclaim.Config{MaxThreads: threads, Slots: 3}, opts...)
}

func TestBeginOpActivates(t *testing.T) {
	d := newHyaline(testArena(), 2)
	h := d.Register()
	st := d.state(h)
	if st.head.Load() != inactiveNode {
		t.Fatal("fresh session must publish the inactive sentinel")
	}
	d.BeginOp(h)
	if e := h.Words[0].Load(); e != 1 {
		t.Fatalf("published era = %d, want 1", e)
	}
	if st.head.Load() == inactiveNode {
		t.Fatal("BeginOp must swing the handoff head off the sentinel")
	}
	d.EndOp(h)
	if e := h.Words[0].Load(); e != noneEra {
		t.Fatal("EndOp must retract the published era")
	}
	if st.head.Load() != inactiveNode {
		t.Fatal("EndOp must restore the inactive sentinel")
	}
}

// TestRetireOutsideOpFreesImmediately: with no active session the batch
// collects zero handoffs and the retirer frees it on the spot — Hyaline's
// no-readers fast path.
func TestRetireOutsideOpFreesImmediately(t *testing.T) {
	arena := testArena()
	d := newHyaline(arena, 2)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	h := d.Register()
	for i := 0; i < 10; i++ {
		ref, _ := arena.Alloc()
		d.OnAlloc(ref)
		d.Retire(h, ref)
	}
	if s := d.Stats(); s.Freed != 10 || s.Pending != 0 {
		t.Fatalf("stats after unobserved retires: %+v", s)
	}
}

// TestActiveReaderHoldsBatch: a batch retired while a reader is inside an
// operation is handed to it and freed only at its EndOp — the refcount
// protocol end to end.
func TestActiveReaderHoldsBatch(t *testing.T) {
	arena := testArena()
	d := newHyaline(arena, 2)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	reader := d.Register()
	writer := d.Register()

	ref, n := arena.Alloc()
	n.val = 7
	d.OnAlloc(ref)
	var cell atomic.Uint64
	cell.Store(uint64(ref))

	d.BeginOp(reader)
	got := d.Protect(reader, 0, &cell)
	old := mem.Ref(cell.Swap(0))
	d.Retire(writer, old)

	if s := d.Stats(); s.Freed != 0 || s.Pending != 1 {
		t.Fatalf("batch freed under an active reader: %+v", s)
	}
	if v := arena.Get(got).val; v != 7 {
		t.Fatalf("payload corrupted while held: %d", v)
	}
	d.EndOp(reader)
	if s := d.Stats(); s.Freed != 1 || s.Pending != 0 {
		t.Fatalf("leaver must release the batch: %+v", s)
	}
	d.Unregister(reader)
	d.Unregister(writer)
}

// TestBeginOpDrainsStrandedHandoff pins activation's lossless discipline:
// any handoff node present on the stack at BeginOp carries a counted batch
// reference, and activation must detach and process it exactly as EndOp
// does — a plain store of nil would drop the node and strand the batch's
// refcount above zero, leaking it.
func TestBeginOpDrainsStrandedHandoff(t *testing.T) {
	arena := testArena()
	d := newHyaline(arena, 2)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	reader := d.Register()
	writer := d.Register()

	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	var cell atomic.Uint64
	cell.Store(uint64(ref))

	d.BeginOp(reader)
	d.Retire(writer, mem.Ref(cell.Swap(0)))
	if s := d.Stats(); s.Freed != 0 || s.Pending != 1 {
		t.Fatalf("setup: batch not held by the active reader: %+v", s)
	}
	// Model a node stranded on the stack at activation time: re-activate
	// without the intervening EndOp.
	d.BeginOp(reader)
	if s := d.Stats(); s.Freed != 1 || s.Pending != 0 {
		t.Fatalf("stranded handoff leaked across activation: %+v", s)
	}
	if st := d.state(reader); st.head.Load() != nil {
		t.Fatal("activation must leave an empty active stack")
	}
	d.EndOp(reader)
	d.Unregister(reader)
	d.Unregister(writer)
	if live := arena.Stats().Live; live != 0 {
		t.Fatalf("leaked %d arena slots", live)
	}
}

// TestEnsureCopyOnWrite pins the handoff-table growth discipline: filling
// a nil hole (left by an out-of-order registration growing the table
// first) must publish a fresh slice, never write an element of the
// already-published backing array — the distribution walk reads it
// lock-free, and must never observe an anchor before its sentinel store.
func TestEnsureCopyOnWrite(t *testing.T) {
	d := newHyaline(testArena(), 4)
	low := d.Base.Register() // bypasses ensure: leaves a hole at its id
	d.Register()             // grows the table past the hole
	before := *d.hand.Load()
	if low.ID() >= len(before) || before[low.ID()] != nil {
		t.Fatalf("setup: expected a nil hole at id %d", low.ID())
	}
	st := d.state(low) // fills the hole
	if st == nil || (*d.hand.Load())[low.ID()] != st {
		t.Fatal("hole not filled in the published table")
	}
	if before[low.ID()] != nil {
		t.Fatal("published backing array was mutated in place")
	}
	if st.head.Load() != inactiveNode {
		t.Fatal("anchor must carry the inactive sentinel when published")
	}
}

// TestRobustNilLinkIsNotPublished: in the robust variant a nil link,
// marked or not, costs its one load and nothing else: no clock load, no
// store, and the era cell keeps what it held although the clock has moved.
func TestRobustNilLinkIsNotPublished(t *testing.T) {
	arena := testArena()
	ins := reclaim.NewInstrument(2)
	d := New(arena, reclaim.Config{MaxThreads: 2, Slots: 3, Instrument: ins})
	h := d.Register()
	d.BeginOp(h)
	held := h.Words[0].Load()
	d.eraClock.Store(held + 4)
	for _, link := range []mem.Ref{mem.NilRef, mem.NilRef | mem.MarkBit} {
		var cell atomic.Uint64
		cell.Store(uint64(link))
		ins.Reset()
		if got := d.Protect(h, 0, &cell); got != link {
			t.Fatalf("Protect returned %v, want %v", got, link)
		}
		if s := ins.Snapshot(); s.Visits != 1 || s.Loads != 1 || s.Stores != 0 {
			t.Fatalf("nil link %v counted %+v, want 1 visit, 1 load, 0 stores", link, s)
		}
		if got := h.Words[0].Load(); got != held || h.Lo != held {
			t.Fatalf("era cell published %d, mirror %d after a nil link, want %d", got, h.Lo, held)
		}
	}
	d.EndOp(h)
}

// TestRobustFilterSkipsStalledReader is the scheme-local Figure-4 fact: a
// reader whose published era predates every birth in a batch receives no
// handoff, so churn retired past a stalled reader reclaims fully — while
// the non-robust variant pins all of it, exactly like EBR.
func TestRobustFilterSkipsStalledReader(t *testing.T) {
	const churn = 50
	for _, tc := range []struct {
		name   string
		opts   []Option
		pinned bool // does the stalled reader pin the churn?
	}{
		{"robust", nil, false},
		{"non-robust", []Option{WithRobust(false)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arena := testArena()
			d := newHyaline(arena, 4, tc.opts...)
			d.SetScanThreshold(1) // Algorithm 3: scan on every retire
			stalled := d.Register()
			writer := d.Register()

			// The stalled reader enters at era 1 and never progresses.
			d.BeginOp(stalled)

			// Churn: every node is born after the clock moved past the
			// stalled reader's era (Retire advances the clock each call).
			var cell atomic.Uint64
			for i := 0; i < churn; i++ {
				ref, _ := arena.Alloc()
				d.OnAlloc(ref)
				old := mem.Ref(cell.Swap(uint64(ref)))
				if !old.IsNil() {
					d.Retire(writer, old)
				}
			}
			// The first two nodes were born at era 1 (allocated before the
			// first retire advanced the clock), so their batches legitimately
			// pin under the stalled reader's era-1 publication; everything
			// born later must reclaim despite the stall.
			pending := d.Stats().Pending
			if !tc.pinned && pending > 2 {
				t.Fatalf("robust filter failed: %d objects pinned by the stalled reader", pending)
			}
			if tc.pinned && pending < churn-5 {
				t.Fatalf("non-robust variant should pin the churn: pending = %d", pending)
			}
			d.EndOp(stalled)
			d.Retire(writer, mem.Ref(cell.Swap(0)))
			d.Unregister(stalled)
			d.Unregister(writer)
			d.Drain()
			if s := d.Stats(); s.Pending != 0 {
				t.Fatalf("pending after drain: %+v", s)
			}
			if arena.Stats().Live != 0 {
				t.Fatal("leaked arena slots")
			}
		})
	}
}

// TestDrainReleasesOutstandingBatches: batches still sitting on handoff
// stacks (their holder never left) are freed by Drain, not leaked — the
// destructor's job, since DrainAll's registry walk cannot see them.
func TestDrainReleasesOutstandingBatches(t *testing.T) {
	arena := testArena()
	d := newHyaline(arena, 2)
	reader := d.Register()
	writer := d.Register()
	d.BeginOp(reader)
	for i := 0; i < 5; i++ {
		ref, _ := arena.Alloc()
		d.OnAlloc(ref)
		d.Retire(writer, ref)
	}
	if s := d.Stats(); s.Pending == 0 {
		t.Fatal("setup failed: nothing handed to the active reader")
	}
	d.Drain()
	if s := d.Stats(); s.Pending != 0 || s.Freed != 5 {
		t.Fatalf("drain left batches outstanding: %+v", s)
	}
	if arena.Stats().Live != 0 {
		t.Fatal("leaked arena slots")
	}
}

// TestEarlyDecRefMutantFreesUnderHolder pins the kill-check defect's
// mechanism: with two active readers handed the same batch, the mutant
// double-decrement frees the batch when the FIRST reader leaves, while the
// second still holds a validated reference — the poisoned payload is
// observable.
func TestEarlyDecRefMutantFreesUnderHolder(t *testing.T) {
	var faults []string
	arena := mem.NewArena[tnode](
		mem.Checked[tnode](true),
		mem.WithFaultHandler[tnode](func(msg string) { faults = append(faults, msg) }),
	)
	d := newHyaline(arena, 4)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	d.EnableMutation(MutEarlyDecRef)
	r1, r2 := d.Register(), d.Register()
	writer := d.Register()

	ref, n := arena.Alloc()
	n.val = 7
	d.OnAlloc(ref)
	var cell atomic.Uint64
	cell.Store(uint64(ref))

	d.BeginOp(r1)
	d.BeginOp(r2)
	held := d.Protect(r2, 0, &cell)
	d.Retire(writer, mem.Ref(cell.Swap(0)))
	d.EndOp(r1) // mutant: -2 ≡ both references gone; batch freed

	if s := d.Stats(); s.Freed != 1 {
		t.Fatalf("mutant did not free early: %+v", s)
	}
	arena.Get(held) // r2 still holds a validated reference
	if len(faults) != 1 {
		t.Fatalf("expected a use-after-free fault under r2's hold, got %v", faults)
	}
	d.EndOp(r2)
}

// TestScanThresholdBatches: with amortized scanning the retired list
// accumulates to the threshold before one batch is sealed.
func TestScanThresholdBatches(t *testing.T) {
	arena := testArena()
	d := New(arena, reclaim.Config{MaxThreads: 2, Slots: 2, ScanR: 2})
	h := d.Register()
	d.Register() // two sessions issued: threshold R·issued·Slots = 2·2·2 = 8
	for i := 0; i < 7; i++ {
		ref, _ := arena.Alloc()
		d.OnAlloc(ref)
		d.Retire(h, ref)
	}
	if s := d.Stats(); s.Scans != 0 || s.Freed != 0 {
		t.Fatalf("sealed below threshold: %+v", s)
	}
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	d.Retire(h, ref)
	if s := d.Stats(); s.Scans != 1 || s.Freed != 8 {
		t.Fatalf("threshold crossing must seal and free the batch: %+v", s)
	}
	d.Unregister(h)
}

// TestConcurrentChurnStress drives readers and writers through pooled and
// registered sessions; the checked arena asserts no use-after-free and the
// final drain must account for every retire.
func TestConcurrentChurnStress(t *testing.T) {
	const workers = 8
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	for _, robust := range []bool{true, false} {
		name := "robust"
		if !robust {
			name = "non-robust"
		}
		t.Run(name, func(t *testing.T) {
			arena := testArena()
			d := newHyaline(arena, workers, WithRobust(robust))
			var cells [2]atomic.Uint64
			for i := range cells {
				ref, n := arena.Alloc()
				n.val = 42
				d.OnAlloc(ref)
				cells[i].Store(uint64(ref))
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(worker int) {
					defer wg.Done()
					h := d.Register()
					defer d.Unregister(h)
					for i := 0; i < iters; i++ {
						ci := (worker + i) % 2
						if worker%2 == 0 {
							nref, n := arena.Alloc()
							n.val = 42
							d.OnAlloc(nref)
							old := mem.Ref(cells[ci].Swap(uint64(nref)))
							d.Retire(h, old)
						} else {
							d.BeginOp(h)
							if v := arena.Get(d.Protect(h, ci, &cells[ci])).val; v != 42 {
								panic("observed reclaimed node")
							}
							d.EndOp(h)
						}
					}
				}(w)
			}
			wg.Wait()
			d.Drain()
			if f := arena.Stats().Faults; f != 0 {
				t.Fatalf("%d faults under churn", f)
			}
			if s := d.Stats(); s.Pending != 0 {
				t.Fatalf("pending after drain: %+v", s)
			}
		})
	}
}

func TestName(t *testing.T) {
	a := testArena()
	if got := New(a, reclaim.Config{MaxThreads: 1}).Name(); got != "hyaline-1r" {
		t.Fatalf("Name() = %q", got)
	}
	if got := New(a, reclaim.Config{MaxThreads: 1}, WithRobust(false)).Name(); got != "hyaline" {
		t.Fatalf("non-robust Name() = %q", got)
	}
}
