package hp

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

func newHP(arena *mem.Arena[tnode], threads, slots int, opts ...Option) *Pointers {
	return New(arena, reclaim.Config{MaxThreads: threads, Slots: slots}, opts...)
}

func TestProtectPublishesUnmarkedRef(t *testing.T) {
	arena := testArena()
	d := newHP(arena, 2, 3)
	h := d.Register()
	ref, n := arena.Alloc()
	n.val = 9
	var cell atomic.Uint64
	cell.Store(uint64(ref.WithMark()))

	got := d.Protect(h, 0, &cell)
	if !got.Marked() || got.Unmarked() != ref {
		t.Fatalf("Protect returned %v", got)
	}
	if pub := mem.Ref(h.Words[0].Load()); pub != ref {
		t.Fatalf("published %v, want unmarked %v", pub, ref)
	}
	if arena.Get(got).val != 9 {
		t.Fatal("deref failed")
	}
}

func TestProtectNilSkipsPublication(t *testing.T) {
	arena := testArena()
	ins := reclaim.NewInstrument(2)
	d := New(arena, reclaim.Config{MaxThreads: 2, Slots: 3, Instrument: ins})
	h := d.Register()
	var cell atomic.Uint64 // nil
	if got := d.Protect(h, 0, &cell); !got.IsNil() {
		t.Fatalf("got %v, want nil", got)
	}
	if s := ins.Snapshot(); s.Stores != 0 || s.Loads != 1 {
		t.Fatalf("nil protect cost: %+v", s)
	}
}

func TestProtectCostIsTwoLoadsOneStore(t *testing.T) {
	arena := testArena()
	ins := reclaim.NewInstrument(2)
	d := New(arena, reclaim.Config{MaxThreads: 2, Slots: 3, Instrument: ins})
	h := d.Register()
	ref, _ := arena.Alloc()
	var cell atomic.Uint64
	cell.Store(uint64(ref))
	for i := 0; i < 10; i++ {
		d.Protect(h, 0, &cell)
	}
	s := ins.Snapshot()
	// Paper Table 1: HP costs 2 load() + 1 store() per node — every time,
	// unlike HE's fast path.
	if s.PerVisitLoads() != 2 || s.PerVisitStores() != 1 {
		t.Fatalf("per-visit loads/stores = %v/%v, want 2/1", s.PerVisitLoads(), s.PerVisitStores())
	}
}

func TestRetireUnprotectedFreesAtThreshold(t *testing.T) {
	arena := testArena()
	d := newHP(arena, 2, 3)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	h := d.Register()
	ref, _ := arena.Alloc()
	d.Retire(h, ref)
	if s := d.Stats(); s.Freed != 1 || s.Pending != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestScanThresholdDefersScan(t *testing.T) {
	arena := testArena()
	d := newHP(arena, 2, 3, WithScanThreshold(5))
	h := d.Register()
	for i := 0; i < 4; i++ {
		ref, _ := arena.Alloc()
		d.Retire(h, ref)
	}
	if s := d.Stats(); s.Scans != 0 || s.Pending != 4 {
		t.Fatalf("scan ran early: %+v", s)
	}
	ref, _ := arena.Alloc()
	d.Retire(h, ref) // 5th triggers scan
	if s := d.Stats(); s.Scans != 1 || s.Freed != 5 {
		t.Fatalf("threshold scan missing: %+v", s)
	}
}

func TestProtectedObjectSurvivesScan(t *testing.T) {
	arena := testArena()
	d := newHP(arena, 2, 3)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	reader := d.Register()
	writer := d.Register()

	ref, _ := arena.Alloc()
	var cell atomic.Uint64
	cell.Store(uint64(ref))
	d.Protect(reader, 0, &cell)

	cell.Store(uint64(mem.NilRef))
	d.Retire(writer, ref)
	if s := d.Stats(); s.Pending != 1 {
		t.Fatalf("protected object freed: %+v", s)
	}
	d.Clear(reader)
	other, _ := arena.Alloc()
	d.Retire(writer, other) // triggers scan that frees both
	if s := d.Stats(); s.Pending != 0 || s.Freed != 2 {
		t.Fatalf("stats after clear+scan: %+v", s)
	}
}

// Unlike Hazard Eras, HP protects exactly the published object: a stalled
// reader pins one node, never a lifetime range.
func TestStalledReaderPinsExactlyOneObject(t *testing.T) {
	arena := testArena()
	d := newHP(arena, 4, 3)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	reader := d.Register()
	writer := d.Register()

	pinned, _ := arena.Alloc()
	var cell atomic.Uint64
	cell.Store(uint64(pinned))
	d.Protect(reader, 0, &cell)

	d.Retire(writer, pinned)
	for i := 0; i < 50; i++ {
		ref, _ := arena.Alloc()
		d.Retire(writer, ref)
	}
	if s := d.Stats(); s.Pending != 1 || s.Freed != 50 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestClearReleasesAllSlots(t *testing.T) {
	arena := testArena()
	d := newHP(arena, 2, 3)
	h := d.Register()
	for i := 0; i < 3; i++ {
		ref, _ := arena.Alloc()
		var cell atomic.Uint64
		cell.Store(uint64(ref))
		d.Protect(h, i, &cell)
	}
	d.EndOp(h)
	for i := 0; i < 3; i++ {
		if h.Words[i].Load() != nonePtr {
			t.Fatalf("slot %d not cleared", i)
		}
	}
}

func TestConcurrentProtectRetireStress(t *testing.T) {
	arena := testArena()
	const threads = 8
	d := newHP(arena, threads, 1)
	var cell atomic.Uint64
	seed, sn := arena.Alloc()
	sn.val = 42
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
					old := mem.Ref(cell.Swap(uint64(nref)))
					d.Retire(h, old)
				} else {
					got := d.Protect(h, 0, &cell)
					if v := arena.Get(got).val; v != 42 {
						panic("reader observed poisoned value")
					}
					d.EndOp(h)
				}
			}
		}(w%2 == 0)
	}
	wg.Wait()
	d.Drain()
	if f := arena.Stats().Faults; f != 0 {
		t.Fatalf("memory faults: %d", f)
	}
	if s := d.Stats(); s.Pending != 0 {
		t.Fatalf("pending after drain: %+v", s)
	}
}

// TestMemoryBoundIsPublishedPointers verifies Table 1's O(threads^2) HP
// bound concretely: with R=1, the only objects that can pend are those
// whose refs sit in some hazard slot — at most MaxThreads x Slots of them,
// regardless of churn volume.
func TestMemoryBoundIsPublishedPointers(t *testing.T) {
	arena := testArena()
	const readers, slots = 4, 3
	d := New(arena, reclaim.Config{MaxThreads: readers + 1, Slots: slots})
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	writer := d.Register()

	// Each reader pins `slots` distinct nodes.
	var pinned []mem.Ref
	for r := 0; r < readers; r++ {
		h := d.Register()
		for i := 0; i < slots; i++ {
			ref, _ := arena.Alloc()
			var cell atomic.Uint64
			cell.Store(uint64(ref))
			d.Protect(h, i, &cell)
			pinned = append(pinned, ref)
		}
	}
	for _, ref := range pinned {
		d.Retire(writer, ref)
	}
	const churn = 5000
	for i := 0; i < churn; i++ {
		ref, _ := arena.Alloc()
		d.Retire(writer, ref)
	}
	s := d.Stats()
	bound := int64(readers * slots)
	if s.Pending != bound {
		t.Fatalf("Pending = %d, want exactly the %d published pointers", s.Pending, bound)
	}
	if s.Freed != churn {
		t.Fatalf("Freed = %d, want %d", s.Freed, churn)
	}
	if s.PeakPending > bound+1 {
		t.Fatalf("PeakPending = %d exceeds bound %d (+1 in-flight)", s.PeakPending, bound)
	}
}
