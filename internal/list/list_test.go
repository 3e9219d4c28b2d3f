package list

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/smr"
)

// schemes are the registry rows the concurrent tests run.
var schemes = []smr.Scheme{smr.HE, smr.HEMinMax, smr.HP, smr.IBR, smr.EBR, smr.URCU, smr.RC, smr.None}

func heList(t *testing.T) *List {
	t.Helper()
	return New(smr.HE.Factory(), WithChecked(true), WithMaxThreads(16))
}

func TestEmptyList(t *testing.T) {
	l := heList(t)
	h := l.Register()
	if l.Contains(h, 5) {
		t.Fatal("empty list contains 5")
	}
	if l.Remove(h, 5) {
		t.Fatal("removed from empty list")
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestInsertContainsRemove(t *testing.T) {
	l := heList(t)
	h := l.Register()
	if !l.Insert(h, 5, 50) {
		t.Fatal("insert failed")
	}
	if l.Insert(h, 5, 51) {
		t.Fatal("duplicate insert succeeded")
	}
	if !l.Contains(h, 5) {
		t.Fatal("missing 5")
	}
	if v, ok := l.Get(h, 5); !ok || v != 50 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if !l.Remove(h, 5) {
		t.Fatal("remove failed")
	}
	if l.Contains(h, 5) {
		t.Fatal("still contains 5")
	}
	if l.Remove(h, 5) {
		t.Fatal("double remove succeeded")
	}
}

func TestSortedOrderMaintained(t *testing.T) {
	l := heList(t)
	h := l.Register()
	for _, k := range []uint64{5, 1, 9, 3, 7, 2, 8} {
		l.Insert(h, k, k*10)
	}
	if l.Len() != 7 {
		t.Fatalf("Len = %d, want 7", l.Len())
	}
	// Walk the raw list and check strict ascending order.
	prev := uint64(0)
	first := true
	for ref := l.head.Peek().Unmarked().Ref(); !ref.IsNil(); {
		n := l.Arena().Get(ref)
		if !first && n.Key <= prev {
			t.Fatalf("order violated: %d after %d", n.Key, prev)
		}
		prev, first = n.Key, false
		ref = n.Next.Peek().Unmarked().Ref()
	}
}

func TestBoundaryKeys(t *testing.T) {
	l := heList(t)
	h := l.Register()
	for _, k := range []uint64{0, 1, ^uint64(0) >> 1, ^uint64(0)} {
		if !l.Insert(h, k, k) {
			t.Fatalf("insert %d failed", k)
		}
		if !l.Contains(h, k) {
			t.Fatalf("missing %d", k)
		}
	}
	for _, k := range []uint64{0, 1, ^uint64(0) >> 1, ^uint64(0)} {
		if !l.Remove(h, k) {
			t.Fatalf("remove %d failed", k)
		}
	}
	if l.Len() != 0 {
		t.Fatal("list not empty")
	}
}

func TestRemoveHeadMiddleTail(t *testing.T) {
	l := heList(t)
	h := l.Register()
	for k := uint64(1); k <= 5; k++ {
		l.Insert(h, k, k)
	}
	for _, k := range []uint64{1, 3, 5} { // head, middle, tail
		if !l.Remove(h, k) {
			t.Fatalf("remove %d", k)
		}
	}
	for _, k := range []uint64{2, 4} {
		if !l.Contains(h, k) {
			t.Fatalf("lost %d", k)
		}
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestReinsertionAllocatesNewNode(t *testing.T) {
	// The paper's workload removes and re-inserts the same key: "internally,
	// the lock-free list will have to retire the old node and create a new
	// node" (§4). Verify churn actually allocates.
	l := heList(t)
	h := l.Register()
	l.Insert(h, 7, 7)
	a0 := l.Arena().Stats().Allocs
	for i := 0; i < 10; i++ {
		if !l.Remove(h, 7) || !l.Insert(h, 7, 7) {
			t.Fatal("churn failed")
		}
	}
	if got := l.Arena().Stats().Allocs - a0; got != 10 {
		t.Fatalf("allocs during churn = %d, want 10", got)
	}
	// Single-threaded with HE: every retired node must be reclaimed (no
	// reader holds an era), so the pending set stays tiny.
	if s := l.Domain().Stats(); s.Retired < 10 || s.Pending > 1 {
		t.Fatalf("reclamation stalled: %+v", s)
	}
}

// Property test: the list agrees with a map model under random op sequences.
func TestQuickModelEquivalence(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint8
	}
	prop := func(ops []op) bool {
		l := New(smr.HE.Factory(), WithChecked(true), WithMaxThreads(2))
		h := l.Register()
		model := map[uint64]uint64{}
		for _, o := range ops {
			k := uint64(o.Key % 32)
			switch o.Kind % 3 {
			case 0:
				_, exists := model[k]
				if l.Insert(h, k, k*2) == exists {
					return false
				}
				model[k] = k * 2
			case 1:
				_, exists := model[k]
				if l.Remove(h, k) != exists {
					return false
				}
				delete(model, k)
			case 2:
				_, exists := model[k]
				if l.Contains(h, k) != exists {
					return false
				}
			}
		}
		if l.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := l.Get(h, k)
			if !ok || got != v {
				return false
			}
		}
		l.Drain()
		return l.Arena().Stats().Live == 0 && l.Arena().Stats().Faults == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentChurnAllSchemes is the integration core: the paper's §4
// workload (remove+reinsert churn with concurrent lookups) under every
// reclamation scheme, over a checked and poisoned arena.
func TestConcurrentChurnAllSchemes(t *testing.T) {
	const threads = 8
	iters := 1500
	if testing.Short() {
		iters = 200
	}
	const keyRange = 64
	for _, sch := range schemes {
		if sch == smr.RC {
			// Valois-style reference counting is excluded from the checked
			// concurrent matrix by design: a deleted list node's next cell
			// is frozen forever, so a counted acquisition validated against
			// it can land on a recycled slot. That is the paper's §1 point
			// about [28] ("can not be used for memory reclamation, allowing
			// only the re-usage of objects") — the checked arena turns the
			// re-usage into a detected incarnation confusion. RC remains in
			// the single-threaded tests here and in the top-level-cell
			// conformance stress, where its validation cells are live.
			continue
		}
		t.Run(sch.String(), func(t *testing.T) {
			l := New(sch.Factory(), WithChecked(true), WithMaxThreads(threads))
			setup := l.Register()
			for k := uint64(0); k < keyRange; k++ {
				l.Insert(setup, k, k)
			}
			setup.Unregister()

			var wg sync.WaitGroup
			errs := make(chan string, threads)
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					h := l.Register()
					defer h.Unregister()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < iters; i++ {
						k := uint64(rng.Intn(keyRange))
						switch rng.Intn(10) {
						case 0, 1, 2: // update: remove + reinsert (paper §4)
							if l.Remove(h, k) {
								if !l.Insert(h, k, k) {
									errs <- fmt.Sprintf("reinsert of %d failed", k)
									return
								}
							}
						default:
							l.Contains(h, k)
						}
					}
				}(int64(w) + 1)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			if f := l.Arena().Stats().Faults; f != 0 {
				t.Fatalf("%s: %d memory faults (use-after-free!)", sch, f)
			}
			// Every removed key was reinserted: full population must remain.
			if got := l.Len(); got != keyRange {
				t.Fatalf("%s: Len = %d, want %d", sch, got, keyRange)
			}
			l.Drain()
			if live := l.Arena().Stats().Live; live != 0 {
				t.Fatalf("%s: leaked %d nodes after drain", sch, live)
			}
		})
	}
}

// TestHelpingUnlinkRetiresExactlyOnce: force a logically deleted node to be
// unlinked by a different traversal and confirm single retirement.
func TestHelpingUnlinkRetiresExactlyOnce(t *testing.T) {
	l := heList(t)
	h := l.Register()
	l.Insert(h, 1, 1)
	l.Insert(h, 2, 2)
	l.Insert(h, 3, 3)

	// Mark node 2 manually (logical delete without physical unlink).
	ref := l.head.Peek().Ref()
	n1 := l.Arena().Get(ref) // key 1
	ref2 := n1.Next.Peek().Ref()
	n2 := l.Arena().Get(ref2) // key 2
	raw := n2.Next.Peek()
	if !n2.Next.CompareAndSwap(raw, raw.WithMark()) {
		t.Fatal("marking failed")
	}

	// A traversal (insert of key 4) must help unlink node 2 and retire it.
	l.Insert(h, 4, 4)
	if l.Contains(h, 2) {
		t.Fatal("marked node still visible")
	}
	s := l.Domain().Stats()
	if s.Retired != 1 {
		t.Fatalf("Retired = %d, want exactly 1", s.Retired)
	}
	if got := l.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if f := l.Arena().Stats().Faults; f != 0 {
		t.Fatalf("faults: %d", f)
	}
}

func TestDrainFreesEverything(t *testing.T) {
	for _, sch := range schemes {
		t.Run(sch.String(), func(t *testing.T) {
			l := New(sch.Factory(), WithChecked(true), WithMaxThreads(4))
			h := l.Register()
			for k := uint64(0); k < 50; k++ {
				l.Insert(h, k, k)
			}
			for k := uint64(0); k < 50; k += 2 {
				l.Remove(h, k)
			}
			h.Unregister()
			l.Drain()
			if st := l.Arena().Stats(); st.Live != 0 {
				t.Fatalf("%s: leaked %d (%+v)", sch, st.Live, st)
			}
		})
	}
}

func TestInstrumentedTraversalCosts(t *testing.T) {
	// Regenerates the essence of Table 1 at unit-test scale: per visited
	// node, HP pays 2 loads + 1 store; HE's fast path pays 2 loads.
	for _, tc := range []struct {
		name           string
		wantLoads      float64
		wantStoresMax  float64
		wantStoresMin  float64
		factory        smr.Scheme
		perVisitLoads2 bool
	}{
		{name: "HP", factory: smr.HP},
		{name: "HE", factory: smr.HE},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ins := smr.NewInstrument(4)
			l := New(tc.factory.Factory(), WithChecked(true), WithMaxThreads(4), WithInstrument(ins))
			h := l.Register()
			for k := uint64(0); k < 100; k++ {
				l.Insert(h, k, k)
			}
			ins.Reset()
			for i := 0; i < 20; i++ {
				l.Contains(h, 99) // full traversal
			}
			s := ins.Snapshot()
			// The ratios amortize to the Table-1 values: the end-of-list
			// nil protect costs one load, and HE's first protect after a
			// Clear republishes once per operation.
			switch tc.factory {
			case smr.HP:
				if ld := s.PerVisitLoads(); ld < 1.9 || ld > 2.1 {
					t.Fatalf("HP per-node loads = %.2f, want ~2", ld)
				}
				if st := s.PerVisitStores(); st < 0.9 || st > 1.0 {
					t.Fatalf("HP per-node stores = %.2f, want ~1", st)
				}
			case smr.HE:
				if ld := s.PerVisitLoads(); ld < 2.0 || ld > 2.2 {
					t.Fatalf("HE per-node loads = %.2f, want ~2", ld)
				}
				// No retire ran, so the era never changed: one
				// republication per operation, amortized to ~0 per node.
				if st := s.PerVisitStores(); st > 0.05 {
					t.Fatalf("HE per-node stores = %.4f, want ~0", st)
				}
			}
		})
	}
}

// FuzzListModel interprets fuzz input as an op script and cross-checks the
// Harris-Michael list against a map model, over a checked arena.
func FuzzListModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{10, 11, 10, 11, 12})
	f.Fuzz(func(t *testing.T, script []byte) {
		l := New(smr.HE.Factory(), WithChecked(true), WithMaxThreads(2))
		h := l.Register()
		model := map[uint64]uint64{}
		for i, b := range script {
			k := uint64(b % 32)
			switch (b / 32) % 3 {
			case 0:
				_, exists := model[k]
				if l.Insert(h, k, uint64(i)) == exists {
					t.Fatalf("op %d: insert(%d) disagreed with model", i, k)
				}
				if !exists {
					model[k] = uint64(i)
				}
			case 1:
				_, exists := model[k]
				if l.Remove(h, k) != exists {
					t.Fatalf("op %d: remove(%d) disagreed with model", i, k)
				}
				delete(model, k)
			case 2:
				_, exists := model[k]
				if l.Contains(h, k) != exists {
					t.Fatalf("op %d: contains(%d) disagreed with model", i, k)
				}
			}
		}
		if l.Len() != len(model) {
			t.Fatalf("Len = %d, model %d", l.Len(), len(model))
		}
		l.Drain()
		if st := l.Arena().Stats(); st.Live != 0 || st.Faults != 0 {
			t.Fatalf("teardown: %+v", st)
		}
	})
}

// TestUpdateAllocatesNothing pins the word-mode update path to zero Go-heap
// allocations per Remove+Insert: the helped-off refs collect in a stack
// buffer that find passes back by value, and nodes come from the arena.
func TestUpdateAllocatesNothing(t *testing.T) {
	l := New(smr.HE.Factory(), WithMaxThreads(4))
	g := l.Register()
	for k := uint64(0); k < 64; k++ {
		l.Insert(g, k, k)
	}
	k := uint64(0)
	update := func() {
		k = (k + 7) % 64
		l.Remove(g, k)
		l.Insert(g, k, k)
	}
	for i := 0; i < 4096; i++ { // retired lists and magazines reach capacity
		update()
	}
	if avg := testing.AllocsPerRun(1000, update); avg != 0 {
		t.Errorf("list Remove+Insert allocates %.2f objects/op, want 0\n"+
			"(inspect with: go build -gcflags='-m=1' ./internal/list 2>&1 | grep escape)", avg)
	}
}
