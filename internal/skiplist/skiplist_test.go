package skiplist

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/smr"
)

// schemes are the registry rows the concurrent tests run.
var schemes = []smr.Scheme{smr.HE, smr.HP, smr.EBR, smr.URCU}

func heList(t *testing.T) *SkipList {
	t.Helper()
	return New(smr.HE.Factory(), WithChecked(true), WithMaxThreads(16))
}

func TestEmpty(t *testing.T) {
	s := heList(t)
	h := s.Register()
	if s.Contains(h, 1) || s.Remove(h, 1) {
		t.Fatal("empty list misbehaves")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestInsertGetRemove(t *testing.T) {
	s := heList(t)
	h := s.Register()
	keys := []uint64{10, 3, 7, 1, 9, 0, ^uint64(0), 1 << 40}
	for _, k := range keys {
		if !s.Insert(h, k, k*3) {
			t.Fatalf("insert %d failed", k)
		}
		if s.Insert(h, k, k) {
			t.Fatalf("duplicate insert %d succeeded", k)
		}
	}
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(keys))
	}
	for _, k := range keys {
		if v, ok := s.Get(h, k); !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if s.Contains(h, 5) {
		t.Fatal("phantom key 5")
	}
	for _, k := range keys {
		if !s.Remove(h, k) {
			t.Fatalf("remove %d failed", k)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after removal", s.Len())
	}
}

func TestTowersDistribution(t *testing.T) {
	s := heList(t)
	h := s.Register()
	const n = 4096
	for k := uint64(0); k < n; k++ {
		s.Insert(h, k, k)
	}
	histogram := make([]int, MaxLevel+1)
	for k := uint64(0); k < n; k++ {
		histogram[s.LevelOf(k)]++
	}
	if histogram[0] != 0 {
		t.Fatal("present keys must have level >= 1")
	}
	// Geometric(1/2): roughly half the towers have level 1, and some tower
	// should exceed level 5 at n=4096.
	if histogram[1] < n/3 || histogram[1] > 2*n/3 {
		t.Fatalf("level-1 towers = %d of %d, want about half", histogram[1], n)
	}
	tall := 0
	for l := 6; l <= MaxLevel; l++ {
		tall += histogram[l]
	}
	if tall == 0 {
		t.Fatal("no tall towers at n=4096: degenerate level generator")
	}
}

func TestRangeScan(t *testing.T) {
	s := heList(t)
	h := s.Register()
	for k := uint64(0); k < 100; k += 2 { // even keys 0..98
		s.Insert(h, k, k+1000)
	}
	var got []uint64
	n := s.Range(h, 10, 31, func(k, v uint64) bool {
		if v != k+1000 {
			t.Fatalf("Range value mismatch at %d: %d", k, v)
		}
		got = append(got, k)
		return true
	})
	want := []uint64{10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30}
	if n != len(want) || len(got) != len(want) {
		t.Fatalf("Range visited %d, want %d (%v)", n, len(want), got)
	}
	for i, k := range want {
		if got[i] != k {
			t.Fatalf("Range order: got %v", got)
		}
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("Range not ascending")
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := heList(t)
	h := s.Register()
	for k := uint64(0); k < 50; k++ {
		s.Insert(h, k, k)
	}
	seen := 0
	s.Range(h, 0, 50, func(k, v uint64) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("early stop visited %d, want 5", seen)
	}
}

func TestRangeEmptyWindow(t *testing.T) {
	s := heList(t)
	h := s.Register()
	s.Insert(h, 10, 1)
	if n := s.Range(h, 2, 9, func(k, v uint64) bool { return true }); n != 0 {
		t.Fatalf("empty window visited %d", n)
	}
	if n := s.Range(h, 11, 11, func(k, v uint64) bool { return true }); n != 0 {
		t.Fatalf("degenerate window visited %d", n)
	}
}

func TestQuickModelEquivalence(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint8
	}
	prop := func(ops []op) bool {
		s := New(smr.HE.Factory(), WithChecked(true), WithMaxThreads(2))
		h := s.Register()
		model := map[uint64]uint64{}
		for _, o := range ops {
			k := uint64(o.Key % 64)
			switch o.Kind % 4 {
			case 0:
				_, exists := model[k]
				if s.Insert(h, k, k+5) == exists {
					return false
				}
				model[k] = k + 5
			case 1:
				_, exists := model[k]
				if s.Remove(h, k) != exists {
					return false
				}
				delete(model, k)
			case 2:
				v, ok := s.Get(h, k)
				mv, exists := model[k]
				if ok != exists || (ok && v != mv) {
					return false
				}
			case 3:
				// Full range must match the sorted model exactly.
				var keys []uint64
				s.Range(h, 0, 64, func(key, val uint64) bool {
					keys = append(keys, key)
					return true
				})
				if len(keys) != len(model) {
					return false
				}
				for _, key := range keys {
					if _, ok := model[key]; !ok {
						return false
					}
				}
				if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
					return false
				}
			}
		}
		if s.Len() != len(model) {
			return false
		}
		s.Drain()
		return s.Arena().Stats().Live == 0 && s.Arena().Stats().Faults == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersWithChurningWriter(t *testing.T) {
	iters := 600
	if testing.Short() {
		iters = 100
	}
	const keyRange = 256
	for _, sch := range schemes {
		t.Run(sch.String(), func(t *testing.T) {
			s := New(sch.Factory(), WithChecked(true), WithMaxThreads(10))
			setup := s.Register()
			for k := uint64(0); k < keyRange; k++ {
				s.Insert(setup, k, k)
			}
			setup.Unregister()

			// The writer starts only once every reader has finished one
			// operation, so every run overlaps them.
			const readers = 5
			var stop atomic.Bool
			var wg, ready sync.WaitGroup
			ready.Add(readers)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					h := s.Register()
					defer h.Unregister()
					rng := rand.New(rand.NewSource(seed))
					for first := true; first || !stop.Load(); first = false {
						k := uint64(rng.Intn(keyRange))
						if rng.Intn(4) == 0 {
							s.Range(h, k, k+16, func(uint64, uint64) bool { return true })
						} else {
							s.Contains(h, k)
						}
						if first {
							ready.Done()
						}
					}
				}(int64(r) + 1)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := s.Register()
				defer h.Unregister()
				ready.Wait()
				rng := rand.New(rand.NewSource(99))
				for i := 0; i < iters; i++ {
					k := uint64(rng.Intn(keyRange))
					if s.Remove(h, k) {
						s.Insert(h, k, k)
					}
				}
				stop.Store(true)
			}()
			wg.Wait()
			if f := s.Arena().Stats().Faults; f != 0 {
				t.Fatalf("%s: %d memory faults", sch, f)
			}
			if got := s.Len(); got != keyRange {
				t.Fatalf("%s: Len = %d, want %d", sch, got, keyRange)
			}
			s.Drain()
			if live := s.Arena().Stats().Live; live != 0 {
				t.Fatalf("%s: leaked %d nodes", sch, live)
			}
		})
	}
}

// TestRangeNeverGoesBackward: under concurrent churn, a range scan must
// report strictly ascending keys with no repeats (the resume-key protocol).
func TestRangeNeverGoesBackward(t *testing.T) {
	s := heList(t)
	setup := s.Register()
	for k := uint64(0); k < 512; k++ {
		s.Insert(setup, k, k)
	}
	setup.Unregister()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := s.Register()
		defer h.Unregister()
		rng := rand.New(rand.NewSource(7))
		for !stop.Load() {
			k := uint64(rng.Intn(512))
			if s.Remove(h, k) {
				s.Insert(h, k, k)
			}
		}
	}()

	h := s.Register()
	defer h.Unregister()
	for i := 0; i < 300; i++ {
		last := int64(-1)
		s.Range(h, 0, 512, func(k, v uint64) bool {
			if int64(k) <= last {
				t.Errorf("range went backward: %d after %d", k, last)
				return false
			}
			last = int64(k)
			return true
		})
		if t.Failed() {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}
