package bst

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/smr"
)

// schemes are the registry rows the concurrent tests run.
var schemes = []smr.Scheme{smr.HE, smr.HEMinMax, smr.HP}

func heTree(t *testing.T) *Tree {
	t.Helper()
	return New(smr.HE.Factory(), WithChecked(true), WithMaxThreads(16))
}

func TestEmptyTree(t *testing.T) {
	tr := heTree(t)
	h := tr.Register()
	if tr.Contains(h, 1) {
		t.Fatal("empty tree contains 1")
	}
	if tr.Remove(h, 1) {
		t.Fatal("removed from empty tree")
	}
	if tr.Len() != 0 || tr.Depth() != 0 {
		t.Fatal("empty tree has size")
	}
}

func TestInsertGetRemove(t *testing.T) {
	tr := heTree(t)
	h := tr.Register()
	keys := []uint64{5, 1, 9, 0, 12, 7, ^uint64(0)}
	for _, k := range keys {
		if !tr.Insert(h, k, k*2) {
			t.Fatalf("insert %d failed", k)
		}
		if tr.Insert(h, k, k*2) {
			t.Fatalf("duplicate insert %d succeeded", k)
		}
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
	for _, k := range keys {
		if v, ok := tr.Get(h, k); !ok || v != k*2 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if tr.Contains(h, 1000) {
		t.Fatal("phantom key")
	}
	for _, k := range keys {
		if !tr.Remove(h, k) {
			t.Fatalf("remove %d failed", k)
		}
		if tr.Contains(h, k) {
			t.Fatalf("%d still present", k)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after removing all", tr.Len())
	}
}

func TestRemoveRetiresParentAndLeaf(t *testing.T) {
	tr := heTree(t)
	h := tr.Register()
	tr.Insert(h, 1, 1)
	tr.Insert(h, 2, 2)
	tr.Remove(h, 1) // removes leaf + its parent internal
	s := tr.Domain().Stats()
	if s.Retired != 2 {
		t.Fatalf("Retired = %d, want 2 (leaf + internal)", s.Retired)
	}
	if !tr.Contains(h, 2) {
		t.Fatal("sibling lost on remove")
	}
}

func TestRootLeafRemoval(t *testing.T) {
	tr := heTree(t)
	h := tr.Register()
	tr.Insert(h, 42, 1)
	if !tr.Remove(h, 42) {
		t.Fatal("root-leaf remove failed")
	}
	if tr.Len() != 0 {
		t.Fatal("tree not empty")
	}
	// Structure stays usable after emptying.
	tr.Insert(h, 7, 7)
	if !tr.Contains(h, 7) {
		t.Fatal("reuse after emptying failed")
	}
}

func TestPatriciaInvariantDepth(t *testing.T) {
	tr := heTree(t)
	h := tr.Register()
	const n = 1024
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		tr.Insert(h, rng.Uint64(), uint64(i))
	}
	// PATRICIA on random uint64 keys: expected depth O(log n), far below
	// the 64-bit worst case.
	if d := tr.Depth(); d < 8 || d > 40 {
		t.Fatalf("suspicious depth %d for %d random keys", d, n)
	}
}

func TestQuickModelEquivalence(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint8
	}
	prop := func(ops []op) bool {
		tr := New(smr.HE.Factory(), WithChecked(true), WithMaxThreads(2))
		h := tr.Register()
		model := map[uint64]uint64{}
		for _, o := range ops {
			k := uint64(o.Key)
			switch o.Kind % 3 {
			case 0:
				_, exists := model[k]
				if tr.Insert(h, k, k+7) == exists {
					return false
				}
				model[k] = k + 7
			case 1:
				_, exists := model[k]
				if tr.Remove(h, k) != exists {
					return false
				}
				delete(model, k)
			case 2:
				v, ok := tr.Get(h, k)
				mv, exists := model[k]
				if ok != exists || (ok && v != mv) {
					return false
				}
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		tr.Drain()
		return tr.Arena().Stats().Live == 0 && tr.Arena().Stats().Faults == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadersWithChurningWriter: lock-free readers traverse deep
// paths while a writer churns keys, over a checked, poisoned arena — the
// §3.4 scenario.
func TestConcurrentReadersWithChurningWriter(t *testing.T) {
	iters := 800
	if testing.Short() {
		iters = 120
	}
	const keyRange = 256
	for _, sch := range schemes {
		t.Run(sch.String(), func(t *testing.T) {
			tr := New(sch.Factory(), WithChecked(true), WithMaxThreads(8))
			setup := tr.Register()
			for k := uint64(0); k < keyRange; k++ {
				tr.Insert(setup, k*2654435761, k)
			}
			setup.Unregister()

			// The writer starts only once every reader has finished one
			// operation, so every run overlaps them.
			const readers = 6
			var stop atomic.Bool
			var wg, ready sync.WaitGroup
			ready.Add(readers)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					h := tr.Register()
					defer h.Unregister()
					rng := rand.New(rand.NewSource(seed))
					for first := true; first || !stop.Load(); first = false {
						k := uint64(rng.Intn(keyRange)) * 2654435761
						tr.Contains(h, k)
						if first {
							ready.Done()
						}
					}
				}(int64(r) + 1)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := tr.Register()
				defer h.Unregister()
				ready.Wait()
				rng := rand.New(rand.NewSource(99))
				for i := 0; i < iters; i++ {
					k := uint64(rng.Intn(keyRange)) * 2654435761
					if tr.Remove(h, k) {
						tr.Insert(h, k, k)
					}
				}
				stop.Store(true)
			}()
			wg.Wait()
			if f := tr.Arena().Stats().Faults; f != 0 {
				t.Fatalf("%s: %d memory faults", sch, f)
			}
			if got := tr.Len(); got != keyRange {
				t.Fatalf("%s: Len = %d, want %d", sch, got, keyRange)
			}
			tr.Drain()
			if live := tr.Arena().Stats().Live; live != 0 {
				t.Fatalf("%s: leaked %d nodes", sch, live)
			}
		})
	}
}
