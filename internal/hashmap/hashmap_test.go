package hashmap

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/ebr"
	"repro/internal/hp"
	"repro/internal/list"
	"repro/internal/reclaim"
	"repro/internal/urcu"
)

func factories() map[string]list.DomainFactory {
	return map[string]list.DomainFactory{
		"HE":   func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain { return core.New(a, c) },
		"HP":   func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain { return hp.New(a, c) },
		"EBR":  func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain { return ebr.New(a, c) },
		"URCU": func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain { return urcu.New(a, c) },
	}
}

func heMap(t *testing.T, buckets int) *Map {
	t.Helper()
	return New(factories()["HE"], WithChecked(true), WithMaxThreads(16), WithBuckets(buckets))
}

func TestBucketCountRoundsToPowerOfTwo(t *testing.T) {
	m := heMap(t, 100)
	if m.Buckets() != 128 {
		t.Fatalf("Buckets = %d, want 128", m.Buckets())
	}
}

func TestBasicOps(t *testing.T) {
	m := heMap(t, 64)
	h := m.Register()
	if m.Contains(h, 1) {
		t.Fatal("empty map contains 1")
	}
	if !m.Insert(h, 1, 10) || m.Insert(h, 1, 11) {
		t.Fatal("insert semantics broken")
	}
	if v, ok := m.Get(h, 1); !ok || v != 10 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if !m.Remove(h, 1) || m.Remove(h, 1) {
		t.Fatal("remove semantics broken")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestCollidingKeysShareBucketCorrectly(t *testing.T) {
	m := heMap(t, 1) // single bucket: everything collides
	h := m.Register()
	for k := uint64(0); k < 40; k++ {
		if !m.Insert(h, k, k*3) {
			t.Fatalf("insert %d", k)
		}
	}
	if m.Len() != 40 {
		t.Fatalf("Len = %d", m.Len())
	}
	for k := uint64(0); k < 40; k++ {
		if v, ok := m.Get(h, k); !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	for k := uint64(0); k < 40; k += 2 {
		if !m.Remove(h, k) {
			t.Fatalf("remove %d", k)
		}
	}
	if m.Len() != 20 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestHashSpreadsDenseKeys(t *testing.T) {
	m := heMap(t, 256)
	used := map[uint64]bool{}
	for k := uint64(0); k < 256; k++ {
		used[m.hash(k)] = true
	}
	// Fibonacci hashing should spread a dense range over most buckets.
	if len(used) < 128 {
		t.Fatalf("dense keys hit only %d/256 buckets", len(used))
	}
}

func TestQuickModelEquivalence(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint16
	}
	prop := func(ops []op) bool {
		m := New(factories()["HE"], WithChecked(true), WithMaxThreads(2), WithBuckets(8))
		h := m.Register()
		model := map[uint64]uint64{}
		for _, o := range ops {
			k := uint64(o.Key % 128)
			switch o.Kind % 3 {
			case 0:
				_, exists := model[k]
				if m.Insert(h, k, k+1) == exists {
					return false
				}
				model[k] = k + 1
			case 1:
				_, exists := model[k]
				if m.Remove(h, k) != exists {
					return false
				}
				delete(model, k)
			case 2:
				v, ok := m.Get(h, k)
				mv, exists := model[k]
				if ok != exists || (ok && v != mv) {
					return false
				}
			}
		}
		if m.Len() != len(model) {
			return false
		}
		m.Drain()
		return m.Arena().Stats().Live == 0 && m.Arena().Stats().Faults == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentChurnAllSchemes(t *testing.T) {
	const threads = 8
	iters := 1200
	if testing.Short() {
		iters = 150
	}
	const keyRange = 512
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) {
			m := New(mk, WithChecked(true), WithMaxThreads(threads), WithBuckets(64))
			setup := m.Register()
			for k := uint64(0); k < keyRange; k++ {
				m.Insert(setup, k, k)
			}
			setup.Unregister()

			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					h := m.Register()
					defer h.Unregister()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < iters; i++ {
						k := uint64(rng.Intn(keyRange))
						if rng.Intn(10) < 3 {
							if m.Remove(h, k) {
								m.Insert(h, k, k)
							}
						} else {
							m.Contains(h, k)
						}
					}
				}(int64(w) + 1)
			}
			wg.Wait()
			if f := m.Arena().Stats().Faults; f != 0 {
				t.Fatalf("%s: %d memory faults", name, f)
			}
			if got := m.Len(); got != keyRange {
				t.Fatalf("%s: Len = %d, want %d", name, got, keyRange)
			}
			m.Drain()
			if live := m.Arena().Stats().Live; live != 0 {
				t.Fatalf("%s: leaked %d nodes", name, live)
			}
		})
	}
}

// TestUpdateAllocatesNothing: the map's word-mode Remove+Insert, the
// heperf churn step, makes no Go-heap allocation.
func TestUpdateAllocatesNothing(t *testing.T) {
	m := New(factories()["HE"], WithMaxThreads(4), WithBuckets(64))
	g := m.Register()
	for k := uint64(0); k < 256; k++ {
		m.Insert(g, k, k)
	}
	k := uint64(0)
	update := func() {
		k = (k + 13) % 256
		m.Remove(g, k)
		m.Insert(g, k, k)
	}
	for i := 0; i < 4096; i++ {
		update()
	}
	if avg := testing.AllocsPerRun(1000, update); avg != 0 {
		t.Errorf("map Remove+Insert allocates %.2f objects/op, want 0", avg)
	}
}
