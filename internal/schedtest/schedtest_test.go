package schedtest

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
)

// traceRun records the worker-id sequence a schedule produces: with the
// token protocol, appends happen one at a time by construction.
func traceRun(seed uint64, gatesPerWorker int) []int {
	var trace []int
	worker := func(id int) func() {
		return func() {
			for i := 0; i < gatesPerWorker; i++ {
				trace = append(trace, id)
				Point(PointCAS)
			}
		}
	}
	if err := Run(Config{Seed: seed, SwitchPct: 60}, worker(0), worker(1), worker(2)); err != nil {
		panic(err)
	}
	return trace
}

func TestReplayDeterminism(t *testing.T) {
	for seed := uint64(1); seed < 6; seed++ {
		a := traceRun(seed, 50)
		b := traceRun(seed, 50)
		if len(a) != len(b) {
			t.Fatalf("seed %d: replay lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: replay diverges at step %d: %d vs %d", seed, i, a[i], b[i])
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	// Not a hard guarantee for any pair, but across five seeds at 60%
	// switching at least two traces must differ — otherwise the PRNG is
	// not reaching the scheduler.
	base := traceRun(1, 50)
	for seed := uint64(2); seed < 6; seed++ {
		other := traceRun(seed, 50)
		if len(other) != len(base) {
			return
		}
		for i := range base {
			if base[i] != other[i] {
				return
			}
		}
	}
	t.Fatal("five seeds produced identical schedules")
}

func TestGatesAreNoOpsOutsideRun(t *testing.T) {
	if Enabled() {
		t.Fatal("controller installed outside Run")
	}
	Point(PointProtect) // must not block or panic
	Point(PointSpin)
}

func TestWorkerPanicReported(t *testing.T) {
	err := Run(Config{Seed: 3},
		func() {
			for i := 0; i < 100; i++ {
				Point(PointCAS)
			}
		},
		func() { panic("boom") },
	)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not reported: %v", err)
	}
	if !strings.Contains(err.Error(), "seed=3") {
		t.Fatalf("error does not name the seed: %v", err)
	}
}

func TestBudgetAbort(t *testing.T) {
	// 2000 gates against a 500-step budget: the abort must fire, flip the
	// schedule into free-run mode, and still drain both workers.
	loop := func() {
		for i := 0; i < 1000; i++ {
			Point(PointCAS)
		}
	}
	err := Run(Config{Seed: 1, MaxSteps: 500}, loop, loop)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("budget abort not reported: %v", err)
	}
	if !strings.Contains(err.Error(), "seed=1") {
		t.Fatalf("error does not name the seed: %v", err)
	}
}

func TestSpinAlwaysYields(t *testing.T) {
	// Worker 0 spins until worker 1 flips the flag; with SwitchPct 0 on a
	// targeted-empty... SwitchPct 1 and Targeted limited to PointFree, only
	// the PointSpin forced switch can save this from the budget abort.
	var flag atomic.Bool
	err := Run(Config{Seed: 9, SwitchPct: 1, Targeted: []Kind{PointFree}, MaxSteps: 1 << 16},
		func() {
			for !flag.Load() {
				Point(PointSpin)
			}
		},
		func() {
			flag.Store(true)
		},
	)
	if err != nil {
		t.Fatalf("spin gate failed to yield: %v", err)
	}
}

func TestSpinDeadlockDetected(t *testing.T) {
	err := Run(Config{Seed: 2},
		func() {
			for {
				Point(PointSpin)
				if c := Active(); c == nil || c.freeRun.Load() {
					return
				}
			}
		},
	)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("lone spinner not reported as deadlock: %v", err)
	}
}

func TestOracleHoldDropFree(t *testing.T) {
	a := mem.NewArena[uint64]()
	o := NewOracle()
	ref, _ := a.Alloc()

	o.Hold(0, 1, ref)
	o.FreeGuard(ref)
	v := o.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "freed-while-protected") {
		t.Fatalf("held free not flagged: %v", v)
	}

	o.Drop(0, 1)
	o.FreeGuard(ref)
	if len(o.Violations()) != 1 {
		t.Fatalf("dropped hold still flagged: %v", o.Violations())
	}
}

func TestOracleOverwriteAndDropAll(t *testing.T) {
	a := mem.NewArena[uint64]()
	o := NewOracle()
	r1, _ := a.Alloc()
	r2, _ := a.Alloc()

	// Re-holding the same index releases the previous ref (Protect
	// overwrite semantics).
	o.Hold(0, 0, r1)
	o.Hold(0, 0, r2)
	o.FreeGuard(r1)
	if n := len(o.Violations()); n != 0 {
		t.Fatalf("overwritten hold still flagged: %v", o.Violations())
	}
	o.FreeGuard(r2)
	if n := len(o.Violations()); n != 1 {
		t.Fatalf("live hold not flagged: %v", o.Violations())
	}

	// Marked refs normalize to their unmarked identity.
	o2 := NewOracle()
	o2.Hold(1, 0, r1.WithMark())
	o2.FreeGuard(r1)
	if n := len(o2.Violations()); n != 1 {
		t.Fatalf("marked hold not matched against unmarked free: %v", o2.Violations())
	}

	o2.DropAll(1)
	o2.FreeGuard(r1)
	if n := len(o2.Violations()); n != 1 {
		t.Fatalf("DropAll left a hold behind: %v", o2.Violations())
	}
}

// TestLockHolderParksInsideCriticalSection has two workers contend for one
// mutex while the holder parks at a gate inside its critical section: the
// waiter must hand the token back instead of blocking outside every gate,
// both must finish, and the lock must still exclude.
func TestLockHolderParksInsideCriticalSection(t *testing.T) {
	for seed := uint64(1); seed <= 32; seed++ {
		var mu sync.Mutex
		inside, entered := false, 0
		writer := func() {
			for i := 0; i < 3; i++ {
				Lock(&mu)
				if inside {
					t.Errorf("seed %d: two workers inside the critical section", seed)
				}
				inside = true
				entered++
				Point(PointCAS)
				inside = false
				mu.Unlock()
				Point(PointCAS)
			}
		}
		if err := Run(Config{Seed: seed, SwitchPct: 100}, writer, writer); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if entered != 6 {
			t.Fatalf("seed %d: %d critical sections ran, want 6", seed, entered)
		}
	}
}
