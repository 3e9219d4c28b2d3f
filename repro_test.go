package repro_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
	"repro/smr"
)

func newCell(v uint64) *atomic.Uint64 {
	c := &atomic.Uint64{}
	c.Store(v)
	return c
}

// These tests exercise the public facade exactly as a downstream user
// would: no internal/ imports.

func heFactory(a smr.Allocator, c smr.Config) smr.Backend {
	return repro.NewHazardEras(a, c)
}

func TestPublicListRoundTrip(t *testing.T) {
	l := repro.NewList(heFactory)
	h := l.Register()
	defer h.Unregister()

	if !l.Insert(h, 1, 10) || !l.Insert(h, 2, 20) {
		t.Fatal("insert failed")
	}
	if v, ok := l.Get(h, 2); !ok || v != 20 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if !l.Remove(h, 1) {
		t.Fatal("remove failed")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
	l.Drain()
}

func TestPublicSchemesInterchangeable(t *testing.T) {
	factories := map[string]smr.Factory{
		"HE-k8": func(a smr.Allocator, c smr.Config) smr.Backend {
			return repro.NewHazardEras(a, c, repro.WithAdvanceEvery(8))
		},
		"HE-minmax-facade": func(a smr.Allocator, c smr.Config) smr.Backend {
			return repro.NewHazardEras(a, c, repro.WithMinMax(true))
		},
		"HP-facade": func(a smr.Allocator, c smr.Config) smr.Backend {
			return repro.NewHazardPointers(a, c)
		},
	}
	for _, s := range smr.Schemes() {
		factories[s.String()] = s.Factory()
	}
	for name, mk := range factories {
		t.Run(name, func(t *testing.T) {
			m := repro.NewMap(mk)
			h := m.Register()
			defer h.Unregister()
			for k := uint64(0); k < 100; k++ {
				m.Insert(h, k, k*2)
			}
			for k := uint64(0); k < 100; k += 2 {
				m.Remove(h, k)
			}
			if m.Len() != 50 {
				t.Fatalf("Len = %d", m.Len())
			}
			m.Drain()
		})
	}
}

func TestPublicQueueStackTree(t *testing.T) {
	q := repro.NewQueue(heFactory)
	h := q.Register()
	q.Enqueue(h, 7)
	if v, ok := q.Dequeue(h); !ok || v != 7 {
		t.Fatalf("queue: %d,%v", v, ok)
	}
	q.Drain()

	s := repro.NewStack(heFactory)
	h = s.Register()
	s.Push(h, 9)
	if v, ok := s.Pop(h); !ok || v != 9 {
		t.Fatalf("stack: %d,%v", v, ok)
	}
	s.Drain()

	tr := repro.NewTree(heFactory)
	h = tr.Register()
	tr.Insert(h, 3, 33)
	if v, ok := tr.Get(h, 3); !ok || v != 33 {
		t.Fatalf("tree: %d,%v", v, ok)
	}
	tr.Drain()
}

func TestPublicArenaDirectUse(t *testing.T) {
	type node struct{ v uint64 }
	arena := smr.NewArena[node](
		smr.Checked[node](true),
		smr.WithPoison[node](func(n *node) { n.v = 0xDEAD }),
	)
	ref, n := arena.Alloc()
	n.v = 1
	if ref == smr.NilRef {
		t.Fatal("nil ref from Alloc")
	}
	dom := repro.NewHazardEras(arena, smr.Config{MaxThreads: 2, Slots: 1})
	dom.OnAlloc(ref)
	h := dom.Register()
	dom.Retire(h, ref)
	if st := dom.Stats(); st.Freed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPublicConcurrentSmoke(t *testing.T) {
	l := repro.NewList(heFactory)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := l.Register()
			defer h.Unregister()
			for i := 0; i < 500; i++ {
				k := uint64((w*17 + i) % 64)
				switch i % 3 {
				case 0:
					l.Insert(h, k, k)
				case 1:
					l.Contains(h, k)
				case 2:
					l.Remove(h, k)
				}
			}
		}(w)
	}
	wg.Wait()
	l.Drain()
}

func TestPublicInstrument(t *testing.T) {
	ins := smr.NewInstrument(2)
	type node struct{ v uint64 }
	arena := smr.NewArena[node]()
	dom := repro.NewHazardEras(arena, smr.Config{MaxThreads: 2, Slots: 1, Instrument: ins})
	h := dom.Register()
	ref, _ := arena.Alloc()
	dom.OnAlloc(ref)
	cell := newCell(uint64(ref))
	for i := 0; i < 10; i++ {
		dom.Protect(h, 0, cell)
	}
	if s := ins.Snapshot(); s.Visits != 10 {
		t.Fatalf("snapshot: %+v", s)
	}
}

func TestPublicSkipListRange(t *testing.T) {
	s := repro.NewSkipList(heFactory)
	h := s.Register()
	defer h.Unregister()
	for k := uint64(0); k < 20; k++ {
		s.Insert(h, k, k*2)
	}
	var got []uint64
	n := s.Range(h, 5, 15, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	if n != 10 || len(got) != 10 || got[0] != 5 || got[9] != 14 {
		t.Fatalf("Range = %d, %v", n, got)
	}
	if v, ok := s.Get(h, 7); !ok || v != 14 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	s.Drain()
}

// TestPublicReleasedGuardPanics runs one read operation of every structure
// on a released Guard. Each read path goes through the Guard's lifecycle
// checks, so each must panic with smr's released-Guard message instead of
// running on the session the Guard gave back to the pool.
func TestPublicReleasedGuardPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func() (*smr.Guard, func(*smr.Guard))
	}{
		{"List", func() (*smr.Guard, func(*smr.Guard)) {
			l := repro.NewList(heFactory)
			return l.Register(), func(g *smr.Guard) { l.Contains(g, 1) }
		}},
		{"Map", func() (*smr.Guard, func(*smr.Guard)) {
			m := repro.NewMap(heFactory)
			return m.Register(), func(g *smr.Guard) { m.Contains(g, 1) }
		}},
		{"Queue", func() (*smr.Guard, func(*smr.Guard)) {
			q := repro.NewQueue(heFactory)
			return q.Register(), func(g *smr.Guard) { q.Dequeue(g) }
		}},
		{"Stack", func() (*smr.Guard, func(*smr.Guard)) {
			s := repro.NewStack(heFactory)
			return s.Register(), func(g *smr.Guard) { s.Pop(g) }
		}},
		{"SkipList", func() (*smr.Guard, func(*smr.Guard)) {
			s := repro.NewSkipList(heFactory)
			return s.Register(), func(g *smr.Guard) { s.Range(g, 0, 10, func(k, v uint64) bool { return true }) }
		}},
		{"Tree", func() (*smr.Guard, func(*smr.Guard)) {
			tr := repro.NewTree(heFactory)
			return tr.Register(), func(g *smr.Guard) { tr.Contains(g, 1) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, read := tc.open()
			g.Release()
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "on a released Guard") {
					t.Fatalf("read on a released Guard recovered %q, want smr's released-Guard panic", msg)
				}
			}()
			read(g)
		})
	}
}
