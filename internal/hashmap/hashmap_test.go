package hashmap

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/list"
	"repro/smr"
)

// schemes are the registry rows the concurrent tests run.
var schemes = []smr.Scheme{smr.HE, smr.HP, smr.EBR, smr.URCU}

func heMap(t *testing.T, buckets int) *Map {
	t.Helper()
	return New(smr.HE.Factory(), WithChecked(true), WithMaxThreads(16), WithBuckets(buckets))
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
		m := New(smr.HE.Factory(), WithChecked(true), WithMaxThreads(2), WithBuckets(8))
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
	for _, sch := range schemes {
		t.Run(sch.String(), func(t *testing.T) {
			m := New(sch.Factory(), WithChecked(true), WithMaxThreads(threads), WithBuckets(64))
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
				t.Fatalf("%s: %d memory faults", sch, f)
			}
			if got := m.Len(); got != keyRange {
				t.Fatalf("%s: Len = %d, want %d", sch, got, keyRange)
			}
			m.Drain()
			if live := m.Arena().Stats().Live; live != 0 {
				t.Fatalf("%s: leaked %d nodes", sch, live)
			}
		})
	}
}

// TestUpdateAllocatesNothing: the map's word-mode Remove+Insert, the
// heperf churn step, makes no Go-heap allocation.
func TestUpdateAllocatesNothing(t *testing.T) {
	m := New(smr.HE.Factory(), WithMaxThreads(4), WithBuckets(64))
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

// TestChurnPublishesNoMoreThanHP drives the heperf churn step, one session
// removing and reinserting keys that each sit alone in their bucket, under
// HE and HP with an Instrument attached. A one-node chain's tail link is
// nil, and so is the emptied bucket the reinsert reads: HE returns both
// unpublished, as HP does, so its publishing stores per update are at
// most HP's. It also pins the two facts that bound that count: a Load of
// a nil cell leaves the session's published cells as they were, and EndOp
// leaves every cell at NONE (0), so the next operation publishes afresh
// only the cells it dereferences through.
func TestChurnPublishesNoMoreThanHP(t *testing.T) {
	const nkeys, updates = 64, 4096
	perUpdate := map[smr.Scheme]float64{}
	for _, s := range []smr.Scheme{smr.HE, smr.HP} {
		ins := smr.NewInstrument(4)
		mk := func(alloc smr.Allocator, cfg smr.Config) smr.Backend {
			cfg.Instrument = ins
			return s.Factory()(alloc, cfg)
		}
		m := New(mk, WithMaxThreads(4), WithBuckets(8192))
		g := m.Register()
		// Keys with a bucket each, so every chain has one node.
		var keys []uint64
		used := map[uint64]bool{}
		for k := uint64(0); len(keys) < nkeys; k++ {
			if b := m.hash(k); !used[b] {
				used[b] = true
				keys = append(keys, k)
				m.Insert(g, k, k)
			}
		}
		update := func(i int) {
			k := keys[i%nkeys]
			if !m.Remove(g, k) || !m.Insert(g, k, k) {
				t.Fatalf("%s: update of key %d failed", s, k)
			}
		}
		for i := 0; i < updates; i++ { // warm up: scans and era moves settle
			update(i)
		}
		ins.Reset()
		for i := 0; i < updates; i++ {
			update(i)
		}
		perUpdate[s] = float64(ins.Snapshot().Stores) / updates

		words := g.Handle().Words
		for i := range words {
			if w := words[i].Load(); w != 0 {
				t.Errorf("%s: cell %d holds %d after EndOp, want 0", s, i, w)
			}
		}
		// Publish the bucket head's era (or pointer) on index 0, then load
		// a nil cell on every index: no published cell may change.
		var nilCell smr.Atomic[list.Node]
		g.BeginOp()
		if m.bucketFor(keys[0]).Load(g, 0).IsNil() {
			t.Fatalf("%s: bucket of key %d is empty", s, keys[0])
		}
		before := make([]uint64, len(words))
		for i := range words {
			before[i] = words[i].Load()
		}
		for i := 0; i < list.Slots; i++ {
			if !nilCell.Load(g, i).IsNil() {
				t.Fatalf("%s: nil cell loaded non-nil on index %d", s, i)
			}
		}
		for i := range words {
			if w := words[i].Load(); w != before[i] {
				t.Errorf("%s: a nil Load moved cell %d from %d to %d", s, i, before[i], w)
			}
		}
		g.EndOp()
		g.Unregister()
		m.Drain()
	}
	t.Logf("publishing stores per update: HE %.3f, HP %.3f", perUpdate[smr.HE], perUpdate[smr.HP])
	if perUpdate[smr.HE] > perUpdate[smr.HP] {
		t.Errorf("HE made %.3f publishing stores per update, HP %.3f: want HE <= HP", perUpdate[smr.HE], perUpdate[smr.HP])
	}
}
