package ebr

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/reclaim"
)

type tnode struct{ val uint64 }

func testArena() *mem.Arena[tnode] {
	return mem.NewArena[tnode](mem.Checked[tnode](true))
}

func newEBR(arena *mem.Arena[tnode], threads int) *Domain {
	return New(arena, reclaim.Config{MaxThreads: threads, Slots: 3})
}

func TestBeginOpAnnouncesEpoch(t *testing.T) {
	d := newEBR(testArena(), 2)
	h := d.Register()
	d.BeginOp(h)
	a := h.Words[0].Load()
	if a&activeBit == 0 {
		t.Fatal("BeginOp must set active bit")
	}
	if a>>1 != d.globalEpoch.Load() {
		t.Fatalf("announced epoch %d != global %d", a>>1, d.globalEpoch.Load())
	}
	d.EndOp(h)
	if h.Words[0].Load() != 0 {
		t.Fatal("EndOp must clear announcement")
	}
}

func TestProtectIsPlainLoad(t *testing.T) {
	arena := testArena()
	ins := reclaim.NewInstrument(2)
	d := New(arena, reclaim.Config{MaxThreads: 2, Slots: 3, Instrument: ins})
	h := d.Register()
	ref, _ := arena.Alloc()
	var cell atomic.Uint64
	cell.Store(uint64(ref))
	if got := d.Protect(h, 0, &cell); got != ref {
		t.Fatalf("got %v", got)
	}
	if s := ins.Snapshot(); s.PerVisitLoads() != 1 || s.Stores != 0 {
		t.Fatalf("EBR per-node cost must be a single load: %+v", s)
	}
}

func TestReclaimAfterGracePeriod(t *testing.T) {
	arena := testArena()
	d := newEBR(arena, 2)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	h := d.Register()
	// With no active readers each Retire advances the epoch once; an object
	// retired at epoch e frees once global >= e+2, i.e. two retires later.
	// Timeline: retire i stamps epoch e_i and advances the clock, so the
	// object stamped at e frees during the scan that sees global >= e+2 —
	// one retire of lag after the advance. After 4 retires, objects 1..3
	// have aged out and only the last pends.
	var refs [4]mem.Ref
	for i := range refs {
		refs[i], _ = arena.Alloc()
		d.Retire(h, refs[i])
	}
	s := d.Stats()
	if s.Freed != 3 {
		t.Fatalf("Freed = %d, want 3 (grace lag %d)", s.Freed, gracePeriods)
	}
	if s.Pending != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending)
	}
}

func TestActiveReaderPinsEpoch(t *testing.T) {
	arena := testArena()
	d := newEBR(arena, 2)
	reader := d.Register()
	writer := d.Register()

	d.BeginOp(reader)
	e0 := d.globalEpoch.Load()
	// Reader active at e0; a retirer at e0 can advance once (reader has
	// seen e0) but never again, since the reader never re-announces.
	for i := 0; i < 50; i++ {
		ref, _ := arena.Alloc()
		d.Retire(writer, ref)
	}
	if g := d.globalEpoch.Load(); g != e0+1 {
		t.Fatalf("epoch advanced to %d, want pinned at %d", g, e0+1)
	}
	if s := d.Stats(); s.Freed != 0 {
		t.Fatalf("nothing may free while the epoch is pinned: %+v", s)
	}
}

// TestStalledReaderGrowsUnbounded is the paper's Fig. 5 behaviour: a single
// stalled reader blocks ALL reclamation, including of objects created after
// it stalled — the defining contrast with Hazard Eras.
func TestStalledReaderGrowsUnbounded(t *testing.T) {
	arena := testArena()
	d := newEBR(arena, 2)
	reader := d.Register()
	writer := d.Register()

	d.BeginOp(reader) // stalls forever
	ref, _ := arena.Alloc()
	d.Retire(writer, ref) // may advance once
	const churn = 100
	for i := 0; i < churn; i++ {
		r, _ := arena.Alloc()
		d.Retire(writer, r)
	}
	if s := d.Stats(); s.Freed != 0 || s.Pending != churn+1 {
		t.Fatalf("EBR should reclaim nothing under a stalled reader: %+v", s)
	}

	// The moment the reader quiesces, churn resumes reclaiming.
	d.EndOp(reader)
	for i := 0; i < 3; i++ {
		r, _ := arena.Alloc()
		d.Retire(writer, r)
	}
	if s := d.Stats(); s.Freed == 0 {
		t.Fatalf("reclamation should resume after quiescence: %+v", s)
	}
}

func TestQuiescentReaderDoesNotPin(t *testing.T) {
	arena := testArena()
	d := newEBR(arena, 2)
	d.SetScanThreshold(1) // Algorithm 3: scan on every retire
	reader := d.Register()
	writer := d.Register()
	d.BeginOp(reader)
	d.EndOp(reader)
	for i := 0; i < 4; i++ {
		ref, _ := arena.Alloc()
		d.Retire(writer, ref)
	}
	if s := d.Stats(); s.Freed != 3 {
		t.Fatalf("quiescent reader must not pin: %+v", s)
	}
}

func TestReAnnouncingReaderAllowsAdvance(t *testing.T) {
	arena := testArena()
	d := newEBR(arena, 2)
	reader := d.Register()
	writer := d.Register()
	for i := 0; i < 6; i++ {
		d.BeginOp(reader) // re-announces current epoch each operation
		ref, _ := arena.Alloc()
		d.Retire(writer, ref)
		d.EndOp(reader)
	}
	if s := d.Stats(); s.Freed == 0 {
		t.Fatalf("advancing readers must not block reclamation: %+v", s)
	}
}

func TestDrain(t *testing.T) {
	arena := testArena()
	d := newEBR(arena, 2)
	reader := d.Register()
	writer := d.Register()
	d.BeginOp(reader)
	for i := 0; i < 10; i++ {
		ref, _ := arena.Alloc()
		d.Retire(writer, ref)
	}
	d.EndOp(reader)
	d.Drain()
	if s := d.Stats(); s.Pending != 0 {
		t.Fatalf("pending after drain: %+v", s)
	}
	if arena.Stats().Live != 0 {
		t.Fatal("arena leaked")
	}
}

func TestStatsExposeEpoch(t *testing.T) {
	d := newEBR(testArena(), 2)
	if d.Stats().EraClock != d.globalEpoch.Load() {
		t.Fatal("Stats must expose the epoch clock")
	}
	if d.Name() != "EBR" {
		t.Fatalf("Name = %q", d.Name())
	}
}

// TestEpochMonotonicityQuick: the global epoch never regresses, whatever
// interleaving of operations a script drives.
func TestEpochMonotonicityQuick(t *testing.T) {
	prop := func(script []byte) bool {
		arena := testArena()
		d := newEBR(arena, 3)
		t0 := d.Register()
		t1 := d.Register()
		last := d.globalEpoch.Load()
		active := false
		for _, b := range script {
			switch b % 4 {
			case 0:
				d.BeginOp(t0)
				active = true
			case 1:
				if active {
					d.EndOp(t0)
					active = false
				}
			default:
				ref, _ := arena.Alloc()
				d.Retire(t1, ref)
			}
			if e := d.globalEpoch.Load(); e < last {
				return false
			} else {
				last = e
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
