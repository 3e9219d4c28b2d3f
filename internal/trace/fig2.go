package trace

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/reclaim"
)

type fig2Node struct {
	label uint64
}

// RunFig2 replays the paper's Figure 2 timeline against the real Hazard
// Eras implementation, asserting every intermediate state:
//
//	step 1: list A,B,D; eraClock=3; a reader has era 2 published
//	step 2: B removed  -> B.delEra=3, clock->4, B NOT reclaimable
//	step 3: C inserted -> C.newEra=4
//	step 4: C removed  -> C.delEra=4, clock->5, C reclaimed immediately,
//	        B still pinned by the era-2 reader
//
// It returns the narrated trace; a non-nil error means the implementation
// diverged from the paper's schematic.
func RunFig2() ([]string, error) {
	arena := mem.NewArena[fig2Node](mem.Checked[fig2Node](true))
	d := core.New(arena, reclaim.Config{MaxThreads: 4, Slots: 3})
	d.SetScanThreshold(1) // the replay is Algorithm 3: a scan on every retire
	reader := d.Register()
	writer := d.Register()

	var lines []string
	say := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	fail := func(format string, args ...any) ([]string, error) { return lines, fmt.Errorf(format, args...) }

	say("Figure 2: removal of nodes B and C under Hazard Eras (clock replay)")

	// Step 1: nodes A, B, D exist from earlier eras; clock has reached 3;
	// the reader protected something back at era 2 and is still running.
	refA, _ := arena.Alloc()
	refB, _ := arena.Alloc()
	refD, _ := arena.Alloc()
	arena.Header(refA).BirthEra = 1
	arena.Header(refB).BirthEra = 1
	arena.Header(refD).BirthEra = 1

	d.SetEraClock(2)
	pinCell := newCell(uint64(refB)) // the reader is looking at B
	d.Protect(reader, 0, pinCell)    // publishes era 2
	d.SetEraClock(3)
	say("step 1: list = [A B D], eraClock=%d, reader published era 2", d.Era())
	if d.Era() != 3 {
		return fail("clock = %d, want 3", d.Era())
	}

	// Step 2: remove B.
	d.Retire(writer, refB)
	say("step 2: remove B -> B.delEra=%d, eraClock=%d", arena.Header(refB).RetireEra, d.Era())
	if arena.Header(refB).RetireEra != 3 || d.Era() != 4 {
		return fail("after removing B: delEra=%d clock=%d, want 3/4", arena.Header(refB).RetireEra, d.Era())
	}
	if !arena.Validate(refB) {
		return fail("B was reclaimed despite the era-2 reader")
	}
	say("        B NOT reclaimed: reader's era 2 lies in B's lifetime [1,3]")

	// Step 3: insert C.
	refC, _ := arena.Alloc()
	d.OnAlloc(refC)
	say("step 3: insert C -> C.newEra=%d", arena.Header(refC).BirthEra)
	if arena.Header(refC).BirthEra != 4 {
		return fail("C.newEra = %d, want 4", arena.Header(refC).BirthEra)
	}

	// Step 4: remove C.
	d.Retire(writer, refC)
	say("step 4: remove C -> C.delEra=%d, eraClock=%d", arena.Header(refC).RetireEra, d.Era())
	if arena.Header(refC).RetireEra != 4 || d.Era() != 5 {
		return fail("after removing C: delEra=%d clock=%d, want 4/5", arena.Header(refC).RetireEra, d.Era())
	}
	if arena.Validate(refC) {
		return fail("C not reclaimed immediately — no reader covers [4,4]")
	}
	if !arena.Validate(refB) {
		return fail("B lost while still pinned")
	}
	say("        C reclaimed IMMEDIATELY: no published era lies in [4,4]")
	say("        B still pinned: era-2 reader active")

	// Epilogue (beyond the figure): the reader completes, B becomes free.
	d.Clear(reader)
	d.Scan(writer)
	if arena.Validate(refB) {
		return fail("B not reclaimed after the reader cleared")
	}
	say("epilogue: reader completes -> B reclaimed on the next scan")
	return lines, nil
}

// cellT is the shared-cell type the schemes protect through.
type cellT = atomic.Uint64

// newCell allocates an atomic cell holding v — scenario plumbing.
func newCell(v uint64) *cellT {
	c := &cellT{}
	c.Store(v)
	return c
}
