package reclaim_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ebr"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/reclaim"
)

// retireFresh allocates, publishes and retires n objects nobody protects.
func retireFresh(d reclaim.Domain, arena *mem.Arena[cnode], h *reclaim.Handle, n int) {
	for i := 0; i < n; i++ {
		ref, _ := arena.Alloc()
		d.OnAlloc(ref)
		d.Retire(h, ref)
	}
}

// TestScanTriggerIgnoresPinnedSurvivors: an HE reader stalled over N
// objects keeps them on the writer's list through every scan, yet K further
// retires cause at most ⌈K/H⌉ scans, H = ScanR·issued·Slots. A trigger on
// the list's length would scan on every one of them.
func TestScanTriggerIgnoresPinnedSurvivors(t *testing.T) {
	const pinned, k = 32, 200
	arena := mem.NewArena[cnode](mem.Checked[cnode](true))
	d := core.New(arena, reclaim.Config{MaxThreads: 4, Slots: 2})
	reader := d.Register()
	writer := d.Register()
	const h = 1 * 2 * 2 // ScanR·issued·Slots

	refs := make([]mem.Ref, pinned)
	for i := range refs {
		refs[i], _ = arena.Alloc()
		d.OnAlloc(refs[i])
	}
	var cell atomic.Uint64
	cell.Store(uint64(refs[0]))
	d.Protect(reader, 0, &cell) // publishes the era every pinned object lives in
	for _, ref := range refs {
		d.Retire(writer, ref)
	}
	d.Scan(writer) // every survivor now sits on the list, already scanned
	before := d.Stats()
	if before.Pending != pinned {
		t.Fatalf("pinned objects not held: %+v", before)
	}

	retireFresh(d, arena, writer, k)
	s := d.Stats()
	if scans, most := s.Scans-before.Scans, int64((k+h-1)/h); scans > most {
		t.Fatalf("%d retires ran %d scans, want at most %d", k, scans, most)
	}
	if s.Pending > pinned+h {
		t.Fatalf("pending %d exceeds %d pinned + %d unscanned", s.Pending, pinned, h)
	}
	d.Clear(reader)
	d.Unregister(reader)
	d.Unregister(writer)
	d.Drain()
}

// TestScanTriggerFollowsRegistry: the threshold is read live from the
// registry, so registering a third session raises it from 2·Slots to
// 3·Slots retires.
func TestScanTriggerFollowsRegistry(t *testing.T) {
	arena := mem.NewArena[cnode](mem.Checked[cnode](true))
	d := core.New(arena, reclaim.Config{MaxThreads: 4, Slots: 2})
	w := d.Register()
	d.Register()
	scans := func() int64 { return d.Stats().Scans }

	retireFresh(d, arena, w, 3)
	if n := scans(); n != 0 {
		t.Fatalf("two sessions: %d scans after 3 retires, want 0", n)
	}
	retireFresh(d, arena, w, 1)
	if n := scans(); n != 1 {
		t.Fatalf("two sessions: %d scans after 4 retires, want 1", n)
	}

	d.Register()
	retireFresh(d, arena, w, 5)
	if n := scans(); n != 1 {
		t.Fatalf("three sessions: %d scans after 5 more retires, want still 1", n)
	}
	retireFresh(d, arena, w, 1)
	if n := scans(); n != 2 {
		t.Fatalf("three sessions: %d scans after 6 more retires, want 2", n)
	}
}

// TestScanTriggerRecycledSlot: a slot handed on by Release (and Acquire),
// or by Unregister's Abandon (and Register), starts its new owner's count
// from zero, so the first scan comes after exactly H retires.
func TestScanTriggerRecycledSlot(t *testing.T) {
	const h = 1 * 2 * 3 // ScanR·issued·Slots with two sessions issued
	for _, mode := range []string{"release", "abandon"} {
		t.Run(mode, func(t *testing.T) {
			arena := mem.NewArena[cnode](mem.Checked[cnode](true))
			d := core.New(arena, reclaim.Config{MaxThreads: 4, Slots: 3})
			reader := d.Register()
			first := d.Acquire()

			// A survivor the reader pins rides along to the next owner
			// (on the slot's list, or through the orphan pool).
			ref, _ := arena.Alloc()
			d.OnAlloc(ref)
			var cell atomic.Uint64
			cell.Store(uint64(ref))
			d.Protect(reader, 0, &cell)
			d.Retire(first, ref)
			retireFresh(d, arena, first, h-2)

			var next *reclaim.Handle
			if mode == "release" {
				first.Release()
				next = d.Acquire()
			} else {
				d.Unregister(first)
				next = d.Register()
			}
			if next.ID() != first.ID() {
				t.Fatalf("slot %d not recycled (got %d)", first.ID(), next.ID())
			}
			base := d.Stats().Scans
			retireFresh(d, arena, next, h-1)
			if n := d.Stats().Scans - base; n != 0 {
				t.Fatalf("%d scans after %d retires on the recycled slot, want 0", n, h-1)
			}
			retireFresh(d, arena, next, 1)
			if n := d.Stats().Scans - base; n != 1 {
				t.Fatalf("%d scans after %d retires on the recycled slot, want 1", n, h)
			}
			d.Clear(reader)
			d.Drain()
		})
	}
}

// TestPendingBudgetCoversAmortizedScans: the Equation-1 budget EnableObs
// installs grows with the registry, so 64 default-config sessions that each
// hold a full batch of unscanned retires raise no pending-budget alert,
// while EBR's stalled-reader runaway at the same size still does.
func TestPendingBudgetCoversAmortizedScans(t *testing.T) {
	const sessions = 64
	run := func(mk func(reclaim.Allocator, reclaim.Config) reclaim.Domain, stall bool, retires int) []obs.Alert {
		arena := mem.NewArena[cnode](mem.Checked[cnode](true))
		d := mk(arena, reclaim.Config{})
		od := obs.NewDomain("budget", obs.Config{})
		d.(interface{ EnableObs(*obs.Domain) }).EnableObs(od)
		hs := make([]*reclaim.Handle, sessions)
		for i := range hs {
			hs[i] = d.Register()
		}
		if stall {
			d.BeginOp(hs[0]) // the reader that never leaves
		}
		m := obs.NewMonitor(obs.MonitorConfig{RaiseTicks: 1, ClearTicks: 1}, func() []*obs.Domain { return []*obs.Domain{od} })
		var alerts []obs.Alert
		m.SetOnAlert(func(a obs.Alert) {
			if a.Invariant == "pending-budget" {
				alerts = append(alerts, a)
			}
		})
		// Round-robin over the sessions, so every one of them carries up to
		// a full unscanned batch at once; the monitor reads each round.
		for done := 0; done < retires; {
			for _, h := range hs[1:] {
				retireFresh(d, arena, h, 1)
				done++
			}
			m.Step()
		}
		if stall {
			d.EndOp(hs[0])
		}
		d.Drain()
		return alerts
	}
	he := func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain { return core.New(a, c) }
	if alerts := run(he, false, 40000); len(alerts) != 0 {
		t.Fatalf("HE churn over %d sessions raised %+v", sessions, alerts[0])
	}
	eb := func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain { return ebr.New(a, c) }
	if alerts := run(eb, true, 80000); len(alerts) == 0 {
		t.Fatal("EBR stalled-reader runaway raised no pending-budget alert")
	}
}
