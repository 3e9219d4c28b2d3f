package reclaim

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
)

type tnode struct{ v uint64 }

func testArena() *mem.Arena[tnode] {
	return mem.NewArena[tnode](mem.Checked[tnode](true))
}

// newTestBase builds a Base the way a scheme constructor would (one
// published word per slot, zero init) and leaves Dom nil — white-box tests
// below only exercise Base-level machinery, never the Domain dispatch.
func newTestBase(alloc Allocator, cfg Config) *Base {
	b := NewBase(alloc, cfg, 1, 0)
	return &b
}

func TestConfigDefaulted(t *testing.T) {
	cfg := Config{}.Defaulted()
	if cfg.MaxThreads <= 0 || cfg.Slots <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	cfg2 := Config{MaxThreads: 3, Slots: 7}.Defaulted()
	if cfg2.MaxThreads != 3 || cfg2.Slots != 7 {
		t.Fatalf("explicit values clobbered: %+v", cfg2)
	}
}

func TestRegistryAssignsDistinctIDs(t *testing.T) {
	b := newTestBase(testArena(), Config{MaxThreads: 4})
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		h := b.Register()
		if h.ID() < 0 || h.ID() >= 4 {
			t.Fatalf("id %d out of range", h.ID())
		}
		if seen[h.ID()] {
			t.Fatalf("duplicate id %d", h.ID())
		}
		seen[h.ID()] = true
	}
	if b.ActiveThreads() != 4 {
		t.Fatalf("ActiveThreads = %d, want 4", b.ActiveThreads())
	}
}

// TestRegistryGrowsBeyondInitialCapacity is the tentpole guarantee:
// Register past MaxThreads must succeed (it used to panic), hand out fresh
// ids, and publish the grown blocks on the chain walked by scanners.
func TestRegistryGrowsBeyondInitialCapacity(t *testing.T) {
	b := newTestBase(testArena(), Config{MaxThreads: 2})
	handles := make([]*Handle, 0, 9)
	seen := map[int]bool{}
	for i := 0; i < 9; i++ {
		h := b.Register()
		if seen[h.ID()] {
			t.Fatalf("duplicate id %d after growth", h.ID())
		}
		seen[h.ID()] = true
		handles = append(handles, h)
	}
	if got := b.ActiveThreads(); got != 9 {
		t.Fatalf("ActiveThreads = %d, want 9", got)
	}
	if got := b.Capacity(); got < 9 {
		t.Fatalf("Capacity = %d, want >= 9", got)
	}
	// The chain must cover every live slot exactly once.
	count := 0
	ids := map[int]bool{}
	for blk := b.head; blk != nil; blk = blk.next.Load() {
		for i := range blk.slots {
			s := &blk.slots[i]
			if ids[s.ID()] {
				t.Fatalf("slot id %d appears twice on the chain", s.ID())
			}
			ids[s.ID()] = true
			count++
		}
	}
	if count != b.Capacity() {
		t.Fatalf("chain covers %d slots, Capacity says %d", count, b.Capacity())
	}
	for _, h := range handles {
		b.Unregister(h)
	}
	if b.ActiveThreads() != 0 {
		t.Fatalf("ActiveThreads after unregister = %d", b.ActiveThreads())
	}
}

// TestRegistryConcurrentGrowth registers from many goroutines at once; ids
// must stay distinct and every handle's cached cells must belong to a
// published slot.
func TestRegistryConcurrentGrowth(t *testing.T) {
	b := newTestBase(testArena(), Config{MaxThreads: 1})
	const n = 32
	var wg sync.WaitGroup
	got := make([]*Handle, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := b.Register()
			h.Words[0].Store(uint64(h.ID()) + 1)
			got[i] = h
		}(i)
	}
	wg.Wait()
	seen := map[int]bool{}
	for _, h := range got {
		if seen[h.ID()] {
			t.Fatalf("duplicate id %d", h.ID())
		}
		seen[h.ID()] = true
	}
	// Every published word must be reachable through the registry walk the
	// scans use, which stops at the issued count.
	found := 0
	walk := b.Sessions()
	for slots := walk.Next(); slots != nil; slots = walk.Next() {
		for i := range slots {
			if slots[i].Word(0).Load() != 0 {
				found++
			}
		}
	}
	if found != n {
		t.Fatalf("chain walk sees %d published words, want %d", found, n)
	}
}

func TestRegistryReusesReleasedIDs(t *testing.T) {
	b := newTestBase(testArena(), Config{MaxThreads: 2})
	a := b.Register()
	_ = b.Register()
	id := a.ID()
	a.Words[0].Store(99)
	b.Unregister(a)
	got := b.Register()
	if got.ID() != id {
		t.Fatalf("expected reuse of id %d, got %d", id, got.ID())
	}
	if got.Words[0].Load() != 0 {
		t.Fatal("recycled slot's published word not reset to initWord")
	}
}

func TestAcquireReleasePool(t *testing.T) {
	b := newTestBase(testArena(), Config{MaxThreads: 2})
	b.Dom = nopDomain{b}
	h := b.Acquire()
	id := h.ID()
	b.Release(h)
	if b.ActiveThreads() != 0 {
		t.Fatalf("ActiveThreads after release = %d", b.ActiveThreads())
	}
	h2 := b.Acquire()
	if h2 != h || h2.ID() != id {
		t.Fatal("Acquire did not reuse the pooled handle")
	}
	b.Unregister(h2)
}

// nopDomain satisfies just enough of Domain for Base.Release's EndOp call.
type nopDomain struct{ b *Base }

func (nopDomain) Name() string           { return "nop" }
func (d nopDomain) Register() *Handle    { return d.b.Register() }
func (d nopDomain) Acquire() *Handle     { return d.b.Acquire() }
func (d nopDomain) Release(h *Handle)    { d.b.Release(h) }
func (d nopDomain) Unregister(h *Handle) { d.b.Unregister(h) }
func (nopDomain) BeginOp(h *Handle)      {}
func (nopDomain) EndOp(h *Handle)        {}
func (nopDomain) Protect(h *Handle, index int, src *atomic.Uint64) mem.Ref {
	return mem.Ref(src.Load())
}
func (nopDomain) Retire(h *Handle, ref mem.Ref) {}
func (nopDomain) OnAlloc(ref mem.Ref)           {}
func (nopDomain) Drain()                        {}
func (d nopDomain) Stats() Stats                { return d.b.BaseStats() }

func TestRetiredListAccounting(t *testing.T) {
	arena := testArena()
	b := newTestBase(arena, Config{MaxThreads: 2})
	h := b.Register()
	r1, _ := arena.Alloc()
	r2, _ := arena.Alloc()
	h.PushRetired(r1)
	h.PushRetired(r2.WithMark()) // mark bit must be stripped
	if got := h.Retired(); len(got) != 2 || got[1].Marked() {
		t.Fatalf("retired list wrong: %v", got)
	}
	s := b.BaseStats()
	if s.Retired != 2 || s.Pending != 2 || s.PeakPending != 2 || s.Freed != 0 {
		t.Fatalf("stats: %+v", s)
	}
	h.FreeRetired(h.Retired()[0])
	h.SetRetired(h.Retired()[1:])
	s = b.BaseStats()
	if s.Freed != 1 || s.Pending != 1 || s.PeakPending != 2 {
		t.Fatalf("stats after free: %+v", s)
	}
}

func TestDrainAllFreesEverything(t *testing.T) {
	arena := testArena()
	b := newTestBase(arena, Config{MaxThreads: 2})
	for w := 0; w < 2; w++ {
		h := b.Register()
		for i := 0; i < 3; i++ {
			r, _ := arena.Alloc()
			h.PushRetired(r)
		}
	}
	b.DrainAll()
	if s := b.BaseStats(); s.Pending != 0 || s.Freed != 6 {
		t.Fatalf("stats after drain: %+v", s)
	}
	if st := arena.Stats(); st.Live != 0 {
		t.Fatalf("arena leaked: %+v", st)
	}
}

// TestDrainAllReachesGrownBlocks: retired lists on slots past the initial
// capacity must be drained too.
func TestDrainAllReachesGrownBlocks(t *testing.T) {
	arena := testArena()
	b := newTestBase(arena, Config{MaxThreads: 1})
	for w := 0; w < 5; w++ {
		h := b.Register()
		r, _ := arena.Alloc()
		h.PushRetired(r)
	}
	b.DrainAll()
	if s := b.BaseStats(); s.Pending != 0 || s.Freed != 5 {
		t.Fatalf("stats after drain: %+v", s)
	}
	if st := arena.Stats(); st.Live != 0 {
		t.Fatalf("arena leaked: %+v", st)
	}
}

func TestNoteRetired(t *testing.T) {
	arena := testArena()
	b := newTestBase(arena, Config{MaxThreads: 1})
	h := b.Register()
	r1, _ := arena.Alloc()
	r2, _ := arena.Alloc()
	h.NoteRetired(r1)
	h.NoteRetired(r2)
	s := b.BaseStats()
	if s.Retired != 2 || s.PeakPending != 2 {
		t.Fatalf("stats: %+v", s)
	}
	// NoteRetired carries the ref so byte accounting stays class-aware.
	if want := 2 * int64(arena.SlotBytes()); s.PendingBytes != want {
		t.Fatalf("PendingBytes = %d, want %d", s.PendingBytes, want)
	}
}

func TestInstrumentNilSafe(t *testing.T) {
	var in *Instrument
	in.Reset()
	if s := in.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil instrument snapshot: %+v", s)
	}
}

// TestInstrumentPerVisitMath counts through registered sessions' probes —
// the only way schemes reach the counters — and checks the fold and the
// per-visit ratios Table 1 reports.
func TestInstrumentPerVisitMath(t *testing.T) {
	in := NewInstrument(2)
	b := newTestBase(testArena(), Config{MaxThreads: 2, Instrument: in})
	h0, h1 := b.Register(), b.Register()
	for i := 0; i < 10; i++ {
		h0.InsVisit()
		h0.InsLoad()
		h0.InsLoad()
		h1.InsStore()
	}
	s := in.Snapshot()
	if s.Visits != 10 || s.Loads != 20 || s.Stores != 10 || s.RMWs != 0 {
		t.Fatalf("snapshot: %+v", s)
	}
	if s.PerVisitLoads() != 2 || s.PerVisitStores() != 1 || s.PerVisitRMWs() != 0 {
		t.Fatalf("per-visit: %v %v %v", s.PerVisitLoads(), s.PerVisitStores(), s.PerVisitRMWs())
	}
	in.Reset()
	if s := in.Snapshot(); s.Visits != 0 {
		t.Fatalf("Reset failed: %+v", s)
	}
}

func TestInstrumentZeroVisits(t *testing.T) {
	s := Snapshot{Loads: 5}
	if s.PerVisitLoads() != 0 {
		t.Fatal("per-visit with zero visits must be 0")
	}
}
