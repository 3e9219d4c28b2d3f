package core

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/reclaim"
)

// newTestCell builds an atomic cell holding v.
func newTestCell(v uint64) *atomic.Uint64 {
	c := &atomic.Uint64{}
	c.Store(v)
	return c
}

// naiveProtected is the brute-force reading of the paper's retire()
// condition (lines 57-63): an object is protected iff some published era
// lies within its lifetime.
func naiveProtected(eras []uint64, birth, retire uint64) bool {
	for _, e := range eras {
		if e != noneEra && e >= birth && e <= retire {
			return true
		}
	}
	return false
}

// registerAll opens n sessions on d and returns them: scans read only the
// slots of ids ever handed out, so the properties below publish their eras
// straight into these sessions' cells.
func registerAll(d *Eras, n int) []*reclaim.Handle {
	hs := make([]*reclaim.Handle, n)
	for i := range hs {
		hs[i] = d.Register()
	}
	return hs
}

// TestProtectedMatchesNaiveModelQuick: the scan in standard mode must agree
// exactly with the brute-force model for arbitrary published eras and
// lifetimes.
func TestProtectedMatchesNaiveModelQuick(t *testing.T) {
	const threads, slots = 3, 3
	prop := func(rawEras [threads * slots]uint16, b16, r16 uint16) bool {
		arena := mem.NewArena[tnode]()
		d := New(arena, reclaim.Config{MaxThreads: threads, Slots: slots})
		hs := registerAll(d, threads)
		eras := make([]uint64, threads*slots)
		for i, e := range rawEras {
			eras[i] = uint64(e % 50) // dense range so overlaps actually occur
			hs[i/slots].Words[i%slots].Store(eras[i])
		}
		birth := uint64(b16 % 50)
		retire := birth + uint64(r16%10)
		ref, _ := arena.Alloc()
		h := arena.Header(ref)
		h.BirthEra, h.RetireEra = birth, retire
		return d.protected(ref) == naiveProtected(eras, birth, retire)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestMinMaxIsConservativeQuick: for any per-thread sets of held eras, the
// min/max publication (§3.4) must protect a SUPERSET of what exact per-slot
// publication protects — conservativeness is what makes the optimization
// safe.
func TestMinMaxIsConservativeQuick(t *testing.T) {
	const threads, slots = 3, 4
	prop := func(rawEras [threads * slots]uint16, b16, r16 uint16) bool {
		arenaStd := mem.NewArena[tnode]()
		arenaMM := mem.NewArena[tnode]()
		std := New(arenaStd, reclaim.Config{MaxThreads: threads, Slots: slots})
		mm := New(arenaMM, reclaim.Config{MaxThreads: threads, Slots: slots}, WithMinMax(true))
		stdSlots := registerAll(std, threads)
		mmSlots := registerAll(mm, threads)

		// Publish the same held sets through both disciplines.
		for ti := 0; ti < threads; ti++ {
			var lo, hi uint64
			for si := 0; si < slots; si++ {
				e := uint64(rawEras[ti*slots+si] % 50)
				stdSlots[ti].Words[si].Store(e)
				if e == noneEra {
					continue
				}
				if lo == 0 || e < lo {
					lo = e
				}
				if e > hi {
					hi = e
				}
			}
			mmSlots[ti].Words[0].Store(lo)
			mmSlots[ti].Words[1].Store(hi)
		}

		birth := uint64(b16 % 50)
		retire := birth + uint64(r16%10)
		refS, _ := arenaStd.Alloc()
		hs := arenaStd.Header(refS)
		hs.BirthEra, hs.RetireEra = birth, retire
		refM, _ := arenaMM.Alloc()
		hm := arenaMM.Header(refM)
		hm.BirthEra, hm.RetireEra = birth, retire

		// Exact-protected implies minmax-protected.
		if std.protected(refS) && !mm.protected(refM) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestMinMaxPublishMaintainsEnvelope: after any sequence of Protect calls
// at monotonically non-decreasing clock values, the published [lo, hi] pair
// must envelope every era currently recorded in the thread's held slots.
func TestMinMaxPublishMaintainsEnvelope(t *testing.T) {
	prop := func(steps []uint8) bool {
		arena := mem.NewArena[tnode]()
		const slots = 4
		d := New(arena, reclaim.Config{MaxThreads: 2, Slots: slots}, WithMinMax(true))
		h := d.Register()
		ref, _ := arena.Alloc()
		cell := newTestCell(uint64(ref))

		clock := uint64(1)
		for _, s := range steps {
			clock += uint64(s % 3) // sometimes advance, sometimes not
			d.SetEraClock(clock)
			d.Protect(h, int(s)%slots, cell)

			lo := h.Words[0].Load()
			hi := h.Words[1].Load()
			for _, held := range h.Held {
				if held == noneEra {
					continue
				}
				if held < lo || held > hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxClampsToTwoSlots(t *testing.T) {
	// A single-slot structure (Treiber stack) under min/max mode gets its
	// slot count clamped to 2, since the mode publishes a [min, max] pair.
	arena := mem.NewArena[tnode]()
	d := New(arena, reclaim.Config{MaxThreads: 2, Slots: 1}, WithMinMax(true))
	if d.Cfg.Slots != 2 {
		t.Fatalf("Slots = %d, want clamped to 2", d.Cfg.Slots)
	}
	// The single index the structure asked for must work end to end.
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	cell := newTestCell(uint64(ref))
	h := d.Register()
	d.Protect(h, 0, cell)
	d.EndOp(h)
}
