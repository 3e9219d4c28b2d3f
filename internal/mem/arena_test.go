package mem

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

type payload struct {
	key  int64
	next uint64
}

func newCheckedArena(t *testing.T) (*Arena[payload], *[]string) {
	t.Helper()
	faults := new([]string)
	a := NewArena[payload](
		Checked[payload](true),
		WithFaultHandler[payload](func(msg string) { *faults = append(*faults, msg) }),
		WithPoison[payload](func(p *payload) { p.key = -0xDEAD; p.next = 0xDEAD }),
	)
	return a, faults
}

func TestAllocBasics(t *testing.T) {
	a, faults := newCheckedArena(t)
	ref, p := a.Alloc()
	if ref.IsNil() {
		t.Fatal("Alloc returned nil ref")
	}
	if ref.Index() == 0 {
		t.Fatal("index 0 is reserved for nil")
	}
	p.key = 7
	if got := a.Get(ref); got.key != 7 {
		t.Fatalf("Get returned wrong payload: %+v", got)
	}
	if !a.Validate(ref) {
		t.Fatal("fresh ref must validate")
	}
	if len(*faults) != 0 {
		t.Fatalf("unexpected faults: %v", *faults)
	}
	st := a.Stats()
	if st.Allocs != 1 || st.Frees != 0 || st.Live != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFreeRecyclesAndBumpsGeneration(t *testing.T) {
	a, _ := newCheckedArena(t)
	ref1, _ := a.Alloc()
	a.Free(ref1)
	ref2, _ := a.Alloc()
	if ref2.Index() != ref1.Index() {
		t.Fatalf("freelist should recycle slot %d, got %d", ref1.Index(), ref2.Index())
	}
	if ref2.Gen() != ref1.Gen()+1 {
		t.Fatalf("generation should bump: %d -> %d", ref1.Gen(), ref2.Gen())
	}
	st := a.Stats()
	if st.Reuses != 1 {
		t.Fatalf("Reuses = %d, want 1", st.Reuses)
	}
}

func TestUseAfterFreeDetected(t *testing.T) {
	a, faults := newCheckedArena(t)
	ref, _ := a.Alloc()
	a.Free(ref)
	_ = a.Get(ref) // stale deref
	if len(*faults) != 1 || !strings.Contains((*faults)[0], "use-after-free") {
		t.Fatalf("expected use-after-free fault, got %v", *faults)
	}
	if a.Validate(ref) {
		t.Fatal("stale ref must not validate")
	}
	if a.Stats().Faults != 1 {
		t.Fatalf("Faults = %d, want 1", a.Stats().Faults)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	a, faults := newCheckedArena(t)
	ref, _ := a.Alloc()
	a.Free(ref)
	a.Free(ref)
	if len(*faults) != 1 || !strings.Contains((*faults)[0], "stale free") {
		t.Fatalf("expected double-free fault, got %v", *faults)
	}
}

func TestFreeNilDetected(t *testing.T) {
	a, faults := newCheckedArena(t)
	a.Free(NilRef)
	if len(*faults) != 1 || !strings.Contains((*faults)[0], "free of nil") {
		t.Fatalf("expected nil-free fault, got %v", *faults)
	}
}

func TestPoisonAppliedOnFree(t *testing.T) {
	a, _ := newCheckedArena(t)
	ref, p := a.Alloc()
	p.key = 99
	a.Free(ref)
	// Header access is legal on freed slots (type-stable), and the payload
	// behind the old index should now hold poison.
	raw := a.Get(MakeRef(ref.Index(), ref.Gen()+1))
	if raw.key != -0xDEAD || raw.next != 0xDEAD {
		t.Fatalf("payload not poisoned: %+v", raw)
	}
}

func TestGetIgnoresMarkBit(t *testing.T) {
	a, faults := newCheckedArena(t)
	ref, p := a.Alloc()
	p.key = 5
	if got := a.Get(ref.WithMark()); got.key != 5 {
		t.Fatalf("marked deref returned wrong payload: %+v", got)
	}
	if len(*faults) != 0 {
		t.Fatalf("unexpected faults: %v", *faults)
	}
}

func TestHeaderNoGenerationCheck(t *testing.T) {
	a, faults := newCheckedArena(t)
	ref, _ := a.Alloc()
	h := a.Header(ref)
	h.BirthEra = 3
	a.Free(ref)
	// Reading the header of a freed slot must not fault (type-stable slots).
	_ = a.Header(ref)
	if len(*faults) != 0 {
		t.Fatalf("unexpected faults: %v", *faults)
	}
}

func TestResetForAllocClearsErasButNotRC(t *testing.T) {
	a, _ := newCheckedArena(t)
	ref, _ := a.Alloc()
	h := a.Header(ref)
	h.BirthEra, h.RetireEra = 10, 20
	h.Retired.Store(true)
	h.RC.Add(1) // simulate a stale acquirer that will release later
	a.Free(ref)
	ref2, _ := a.Alloc()
	h2 := a.Header(ref2)
	if h2.BirthEra != 0 || h2.RetireEra != 0 || h2.Retired.Load() {
		t.Fatalf("eras/retired not reset: %+v", h2)
	}
	// RC is deliberately preserved across recycling: a Valois-style stale
	// acquirer may still hold a transient +1 that it will undo.
	if h2.RC.Load() != 1 {
		t.Fatalf("RC must survive recycling, got %d", h2.RC.Load())
	}
}

func TestUncheckedArenaSkipsValidation(t *testing.T) {
	a := NewArena[payload]()
	if a.Checked() {
		t.Fatal("default arena must be unchecked")
	}
	ref, _ := a.Alloc()
	a.Free(ref)
	_ = a.Get(ref) // must not panic in unchecked mode
}

func TestCrossSlabAllocation(t *testing.T) {
	a := NewArena[payload]()
	seen := make(map[uint64]bool)
	const n = slabSize + 100 // force a second slab
	for i := 0; i < n; i++ {
		ref, _ := a.Alloc()
		if seen[ref.Index()] {
			t.Fatalf("duplicate index %d", ref.Index())
		}
		seen[ref.Index()] = true
	}
	if st := a.Stats(); st.Live != n || st.PeakLive != n {
		t.Fatalf("stats after %d allocs: %+v", n, st)
	}
}

func TestConcurrentAllocFreeNoDuplicates(t *testing.T) {
	a := NewArena[payload](Checked[payload](true))
	const workers = 8
	const iters = 3000
	var wg sync.WaitGroup
	dup := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			local := make([]Ref, 0, 8)
			for i := 0; i < iters; i++ {
				ref, p := a.Alloc()
				p.key = int64(tid)
				local = append(local, ref)
				if len(local) >= 8 {
					for _, r := range local {
						if a.Get(r).key != int64(tid) {
							dup <- "payload of held slot changed under us"
							return
						}
						a.Free(r)
					}
					local = local[:0]
				}
			}
			for _, r := range local {
				a.Free(r)
			}
		}(w)
	}
	wg.Wait()
	close(dup)
	for msg := range dup {
		t.Fatal(msg)
	}
	st := a.Stats()
	if st.Live != 0 {
		t.Fatalf("leaked %d slots: %+v", st.Live, st)
	}
	if st.Allocs != workers*iters {
		t.Fatalf("Allocs = %d, want %d", st.Allocs, workers*iters)
	}
	if st.Faults != 0 {
		t.Fatalf("Faults = %d, want 0", st.Faults)
	}
	if st.Reuses == 0 {
		t.Fatal("expected freelist recycling under churn")
	}
}

func TestValidateNil(t *testing.T) {
	a := NewArena[payload]()
	if a.Validate(NilRef) {
		t.Fatal("nil must not validate")
	}
}

// TestGetFaultPaths covers the typed arena's dereference paths: the
// unchecked fast path, and the out-of-line path that checked arenas and
// unallocated slabs take, with its fault messages.
func TestGetFaultPaths(t *testing.T) {
	record := func(faults *[]string) Option[payload] {
		return WithFaultHandler[payload](func(msg string) { *faults = append(*faults, msg) })
	}
	unallocated := MakeRef(3*slabSize+5, 0)
	wantNilSlab := "dereference of index 24581 in unallocated slab"

	t.Run("unchecked get into an unallocated slab faults", func(t *testing.T) {
		var faults []string
		a := NewArena[payload](record(&faults))
		a.Alloc() // publish slab 0 only
		if p := a.Get(unallocated); p != nil {
			t.Fatalf("Get returned %p, want nil", p)
		}
		if len(faults) != 1 || faults[0] != wantNilSlab {
			t.Fatalf("faults = %q, want [%q]", faults, wantNilSlab)
		}
		if n := a.Stats().Faults; n != 1 {
			t.Fatalf("Faults = %d, want 1", n)
		}
	})

	t.Run("checked get into an unallocated slab faults", func(t *testing.T) {
		var faults []string
		a := NewArena[payload](Checked[payload](true), record(&faults))
		if p := a.Get(unallocated); p != nil {
			t.Fatalf("Get returned %p, want nil", p)
		}
		if len(faults) != 1 || faults[0] != wantNilSlab {
			t.Fatalf("faults = %q, want [%q]", faults, wantNilSlab)
		}
	})

	t.Run("checked get of a stale generation faults", func(t *testing.T) {
		var faults []string
		a := NewArena[payload](Checked[payload](true), record(&faults))
		ref, _ := a.Alloc()
		a.Free(ref)
		a.Get(ref.WithMark())
		want := fmt.Sprintf("use-after-free dereference: %v, slot generation %d", ref, ref.Gen()+1)
		if len(faults) != 1 || faults[0] != want {
			t.Fatalf("faults = %q, want [%q]", faults, want)
		}
	})

	t.Run("checked get of a live ref matches the unchecked fast path", func(t *testing.T) {
		var faults []string
		a := NewArena[payload](Checked[payload](true), record(&faults))
		var refs []Ref
		var ptrs []*payload
		for i := 0; i < slabSize+2; i++ { // the last refs live in slab 1
			ref, p := a.Alloc()
			refs, ptrs = append(refs, ref), append(ptrs, p)
		}
		for _, i := range []int{0, 1, slabSize - 2, slabSize, slabSize + 1} {
			for _, ref := range []Ref{refs[i], refs[i].WithMark()} {
				a.checked = true
				checked := a.Get(ref)
				a.checked = false
				unchecked := a.Get(ref)
				if checked != ptrs[i] || unchecked != ptrs[i] {
					t.Fatalf("Get(%v): checked %p, unchecked %p, allocated %p", ref, checked, unchecked, ptrs[i])
				}
			}
		}
		if len(faults) != 0 {
			t.Fatalf("live refs faulted: %q", faults)
		}
	})
}
