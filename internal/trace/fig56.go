package trace

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/reclaim"
)

// RunFig56HE replays the Figure-6 timeline against the real Hazard Eras
// implementation and checks that reclamation happens at exactly the moments
// the schematic (and the HEVerdicts model) predict:
//
//	x [2,7]  pinned by readers B (era 3) and C (era 6), freed after C ends
//	y [5,13] pinned forever by sleepy reader D (era 12)
//	z [14,22] reclaimed immediately at retire
//
// It returns the narrated trace; a non-nil error means the implementation
// diverged from the schematic.
func RunFig56HE() ([]string, error) {
	arena := mem.NewArena[fig2Node](mem.Checked[fig2Node](true))
	d := core.New(arena, reclaim.Config{MaxThreads: 5, Slots: 1})
	d.SetScanThreshold(1) // the replay is Algorithm 3: a scan on every retire
	var lines []string
	say := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	fail := func(format string, args ...any) ([]string, error) { return lines, fmt.Errorf(format, args...) }

	say("Figure 6 replay against internal/core (times = forced eraClock values)")

	readerA, readerB := d.Register(), d.Register()
	readerC, readerD := d.Register(), d.Register()
	writer := d.Register()

	dummy, _ := arena.Alloc()
	cell := newCell(uint64(dummy))

	// t=1: reader A begins, publishing era 1.
	d.SetEraClock(1)
	d.Protect(readerA, 0, cell)
	say("t=1  reader A publishes era 1")

	// t=2: object x becomes visible.
	x, _ := arena.Alloc()
	d.SetEraClock(2)
	d.OnAlloc(x)
	say("t=2  x born (newEra=2)")

	// t=3: reader B begins.
	d.SetEraClock(3)
	d.Protect(readerB, 0, cell)
	say("t=3  reader B publishes era 3")

	// t=4: reader A completes.
	d.Clear(readerA)
	say("t=4  reader A completes")

	// t=5: object y becomes visible.
	y, _ := arena.Alloc()
	d.SetEraClock(5)
	d.OnAlloc(y)
	say("t=5  y born (newEra=5)")

	// t=6: reader C begins.
	d.SetEraClock(6)
	d.Protect(readerC, 0, cell)
	say("t=6  reader C publishes era 6")

	// t=7: x retired.
	d.SetEraClock(7)
	d.Retire(writer, x)
	if arena.Header(x).RetireEra != 7 {
		return fail("x.delEra = %d, want 7", arena.Header(x).RetireEra)
	}
	if !arena.Validate(x) {
		return fail("x reclaimed at retire despite readers B and C")
	}
	say("t=7  x retired (delEra=7): pinned by B (era 3) and C (era 6)")

	// t=9: reader B completes; x still pinned by C.
	d.Clear(readerB)
	d.Scan(writer)
	if !arena.Validate(x) {
		return fail("x reclaimed before reader C completed")
	}
	say("t=9  reader B completes: x still pinned by C")

	// t=11: reader C completes; x becomes reclaimable.
	d.Clear(readerC)
	d.Scan(writer)
	if arena.Validate(x) {
		return fail("x not reclaimed after reader C completed")
	}
	say("t=11 reader C completes: x reclaimed")

	// t=12: sleepy reader D begins and never completes.
	d.SetEraClock(12)
	d.Protect(readerD, 0, cell)
	say("t=12 reader D publishes era 12 and goes to sleep forever")

	// t=13: y retired — pinned by D.
	d.SetEraClock(13)
	d.Retire(writer, y)
	if !arena.Validate(y) {
		return fail("y reclaimed despite sleepy reader D")
	}
	say("t=13 y retired (delEra=13): pinned by D, possibly forever")

	// t=14: z born AFTER D's era.
	z, _ := arena.Alloc()
	d.SetEraClock(14)
	d.OnAlloc(z)
	say("t=14 z born (newEra=14) — outside D's era")

	// t=22: z retired — reclaimable immediately.
	d.SetEraClock(22)
	d.Retire(writer, z)
	if arena.Validate(z) {
		return fail("z not reclaimed immediately (D's era 12 is outside [14,22])")
	}
	if !arena.Validate(y) {
		return fail("y lost while pinned")
	}
	say("t=22 z retired (delEra=22): reclaimed IMMEDIATELY despite sleepy D")
	say("     -> non-blocking reclamation with bounded memory (Equation 1);")
	say("     under epochs (Figure 5) both y and z would be pinned forever.")

	// Cross-check the whole run against the declarative model.
	model := HEVerdicts(Fig56Scenario())
	if !model[0].Immediate && model[0].FreeAt == 11 &&
		!model[1].Immediate && model[1].FreeAt == 0 &&
		model[2].Immediate {
		say("model cross-check: HEVerdicts agrees with the replay")
	} else {
		return fail("HEVerdicts model disagrees with replay: %+v", model)
	}
	return lines, nil
}
