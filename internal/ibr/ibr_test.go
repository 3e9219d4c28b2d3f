package ibr

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

func newIBR(arena *mem.Arena[tnode], threads int, opts ...Option) *Domain {
	return New(arena, reclaim.Config{MaxThreads: threads, Slots: 3}, opts...)
}

func TestBeginOpSeedsInterval(t *testing.T) {
	d := newIBR(testArena(), 2)
	h := d.Register()
	d.BeginOp(h)
	if lo, hi := h.Words[0].Load(), h.Words[1].Load(); lo != 1 || hi != 1 {
		t.Fatalf("interval = [%d,%d], want [1,1]", lo, hi)
	}
	d.EndOp(h)
	if lo := h.Words[0].Load(); lo != inactive {
		t.Fatal("EndOp must clear the interval")
	}
}

func TestProtectExtendsUpperOnly(t *testing.T) {
	arena := testArena()
	ins := reclaim.NewInstrument(2)
	d := New(arena, reclaim.Config{MaxThreads: 2, Slots: 3, Instrument: ins})
	h := d.Register()
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	var cell atomic.Uint64
	cell.Store(uint64(ref))

	d.BeginOp(h) // [1,1]
	d.eraClock.Store(5)
	d.Protect(h, 0, &cell)
	if lo, hi := h.Words[0].Load(), h.Words[1].Load(); lo != 1 || hi != 5 {
		t.Fatalf("interval = [%d,%d], want [1,5]", lo, hi)
	}
	// Fast path afterwards: no further stores, 2 loads per visit.
	ins.Reset()
	for i := 0; i < 10; i++ {
		d.Protect(h, 0, &cell)
	}
	if s := ins.Snapshot(); s.Stores != 0 || s.PerVisitLoads() != 2 {
		t.Fatalf("fast path: %+v", s)
	}
}

// TestNilLinkIsNotPublished: a nil link, marked or not, costs its one load
// and nothing else: no clock load, no store, and the interval keeps the
// upper bound it had although the clock has moved.
func TestNilLinkIsNotPublished(t *testing.T) {
	arena := testArena()
	ins := reclaim.NewInstrument(2)
	d := New(arena, reclaim.Config{MaxThreads: 2, Slots: 3, Instrument: ins})
	h := d.Register()
	d.BeginOp(h) // [1,1]
	d.eraClock.Store(5)
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
		if hi := h.Words[1].Load(); hi != 1 || h.Hi != 1 {
			t.Fatalf("upper bound published %d, mirror %d after a nil link, want 1", hi, h.Hi)
		}
	}
	d.EndOp(h)
}

func TestSingleIntervalCoversAllIndices(t *testing.T) {
	arena := testArena()
	ins := reclaim.NewInstrument(2)
	d := New(arena, reclaim.Config{MaxThreads: 2, Slots: 3, Instrument: ins})
	h := d.Register()
	var cells [3]atomic.Uint64
	for i := range cells {
		ref, _ := arena.Alloc()
		d.OnAlloc(ref)
		cells[i].Store(uint64(ref))
	}
	d.BeginOp(h)
	ins.Reset()
	for i := 0; i < 3; i++ {
		d.Protect(h, i, &cells[i])
	}
	// Unlike HE, protecting through many indices costs zero extra stores
	// while the era is stable — the defining IBR property.
	if s := ins.Snapshot(); s.Stores != 0 {
		t.Fatalf("stores = %d, want 0 (one interval covers all indices)", s.Stores)
	}
}

func TestRetireUnprotectedFrees(t *testing.T) {
	arena := testArena()
	d := newIBR(arena, 2)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	h := d.Register()
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	d.Retire(h, ref)
	if s := d.Stats(); s.Freed != 1 || s.Pending != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestIntervalOverlapPins(t *testing.T) {
	arena := testArena()
	d := newIBR(arena, 2)
	reader := d.Register()
	writer := d.Register()

	ref, _ := arena.Alloc()
	d.OnAlloc(ref) // birth 1
	var cell atomic.Uint64
	cell.Store(uint64(ref))
	d.BeginOp(reader)
	d.Protect(reader, 0, &cell) // interval [1,1]

	d.Retire(writer, ref) // lifetime [1,1] intersects [1,1]
	if s := d.Stats(); s.Pending != 1 || s.Freed != 0 {
		t.Fatalf("overlapping lifetime must pend: %+v", s)
	}
	d.EndOp(reader)
	d.Scan(writer)
	if s := d.Stats(); s.Pending != 0 {
		t.Fatalf("must free after EndOp: %+v", s)
	}
}

// TestStalledReaderIsBounded is IBR's raison d'etre (inherited from HE): a
// reader parked inside an operation pins only lifetimes intersecting its
// interval; everything born after its upper bound reclaims freely — unlike
// EBR, where the same reader pins all future retirements.
func TestStalledReaderIsBounded(t *testing.T) {
	arena := testArena()
	d := newIBR(arena, 4)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	reader := d.Register()
	writer := d.Register()

	old, _ := arena.Alloc()
	d.OnAlloc(old)
	var cell atomic.Uint64
	cell.Store(uint64(old))
	d.BeginOp(reader)
	d.Protect(reader, 0, &cell) // parked at interval [1,1]

	d.Retire(writer, old) // pinned
	for i := 0; i < 200; i++ {
		ref, _ := arena.Alloc()
		d.OnAlloc(ref) // born at era >= 2 > reader's upper bound
		d.Retire(writer, ref)
	}
	s := d.Stats()
	if s.Freed != 200 {
		t.Fatalf("new objects must reclaim: freed=%d", s.Freed)
	}
	if s.Pending != 1 {
		t.Fatalf("only the covered object may pend: %+v", s)
	}
}

func TestAdvanceEvery(t *testing.T) {
	arena := testArena()
	d := newIBR(arena, 2, WithAdvanceEvery(4))
	h := d.Register()
	for i := 1; i <= 8; i++ {
		ref, _ := arena.Alloc()
		d.OnAlloc(ref)
		d.Retire(h, ref)
		if want := uint64(1 + i/4); d.Era() != want {
			t.Fatalf("after %d retires Era = %d, want %d", i, d.Era(), want)
		}
	}
}

func TestConcurrentStress(t *testing.T) {
	arena := testArena()
	const threads = 8
	d := newIBR(arena, threads)
	var cell atomic.Uint64
	seed, sn := arena.Alloc()
	sn.val = 42
	d.OnAlloc(seed)
	cell.Store(uint64(seed))

	iters := 3000
	if testing.Short() {
		iters = 400
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
					d.BeginOp(h)
					got := d.Protect(h, 0, &cell)
					if v := arena.Get(got).val; v != 42 {
						panic("reader observed reclaimed value")
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
}

func TestName(t *testing.T) {
	if d := newIBR(testArena(), 2); d.Name() != "IBR" {
		t.Fatalf("Name = %q", d.Name())
	}
}
