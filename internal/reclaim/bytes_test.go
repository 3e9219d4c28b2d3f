package reclaim

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
)

func testByteArena() *mem.Arena[tnode] {
	return mem.NewArena[tnode](mem.Checked[tnode](true), mem.WithByteClasses[tnode]())
}

// TestPendingBytesClassAware is the acceptance-criterion assertion: with a
// class-aware allocator, Stats.PendingBytes reports the TRUE per-class
// footprint of the retired-but-unfreed set — header plus full class extent
// per block — not Pending × a single slot size.
func TestPendingBytesClassAware(t *testing.T) {
	arena := testByteArena()
	b := newTestBase(arena, Config{MaxThreads: 2})
	h := b.Register()

	fp := arena.ClassFootprints()
	want := int64(0)

	// Two typed nodes and one payload in each of three byte classes.
	for i := 0; i < 2; i++ {
		r, _ := arena.AllocAt(h.ID())
		h.PushRetired(r)
		want += int64(fp[0])
	}
	for _, n := range []int{10, 500, 4000} {
		r := arena.PutBytesAt(h.ID(), make([]byte, n))
		h.PushRetired(r)
		want += int64(fp[mem.SizeToClass(n)])
	}

	s := b.BaseStats()
	if s.Pending != 5 {
		t.Fatalf("Pending = %d, want 5", s.Pending)
	}
	if s.PendingBytes != want {
		t.Fatalf("PendingBytes = %d, want %d (class-aware sum)", s.PendingBytes, want)
	}
	// The naive Pending × SlotBytes figure must differ — otherwise this test
	// wouldn't distinguish class-aware accounting from the old approximation.
	if naive := s.Pending * int64(arena.SlotBytes()); naive == want {
		t.Fatalf("test degenerate: naive %d == class-aware %d", naive, want)
	}

	b.DrainAll()
	s = b.BaseStats()
	if s.Pending != 0 || s.PendingBytes != 0 {
		t.Fatalf("after drain: %+v", s)
	}
	if st := arena.Stats(); st.Live != 0 {
		t.Fatalf("arena leaked: %+v", st)
	}
}

// statsOnlyDomain gives Base a Dom whose Stats() is BaseStats — the minimal
// Domain surface EnableObs needs.
type statsOnlyDomain struct {
	Domain
	b *Base
}

func (d *statsOnlyDomain) Stats() Stats { return d.b.BaseStats() }

// TestObsPendingBytesTrueFigure pins the obs wiring end to end: the domain
// snapshot's pending_bytes gauge carries the class-aware figure from
// Stats.PendingBytes, and the per-class occupancy table flows through
// SetClassSource.
func TestObsPendingBytesTrueFigure(t *testing.T) {
	arena := testByteArena()
	b := newTestBase(arena, Config{MaxThreads: 2})
	b.Dom = &statsOnlyDomain{b: b}
	od := obs.NewDomain("test", obs.Config{})
	b.EnableObs(od)
	h := b.Register()

	r := arena.PutBytesAt(h.ID(), make([]byte, 4000)) // class 4096
	h.PushRetired(r)

	snap := od.Snapshot()
	want := int64(arena.ClassFootprints()[mem.SizeToClass(4000)])
	if snap.PendingBytes != want {
		t.Fatalf("snapshot pending_bytes = %d, want true class footprint %d", snap.PendingBytes, want)
	}
	if naive := snap.Pending * int64(arena.SlotBytes()); snap.PendingBytes == naive {
		t.Fatalf("snapshot fell back to Pending x SlotBytes (%d)", naive)
	}

	// Per-class occupancy reaches the snapshot through SetClassSource.
	if len(snap.Classes) != 1+mem.NumByteClasses {
		t.Fatalf("snapshot classes: %d, want %d", len(snap.Classes), 1+mem.NumByteClasses)
	}
	found := false
	for _, c := range snap.Classes {
		if c.Size == 4096 {
			found = true
			if c.Allocs != 1 || c.Live != 1 {
				t.Fatalf("4096B class gauges: %+v", c)
			}
		}
	}
	if !found {
		t.Fatal("4096B class missing from snapshot")
	}
	b.DrainAll()
}
