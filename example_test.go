package repro_test

import (
	"fmt"

	"repro"
	"repro/smr"
)

// ExampleNewList shows the paper's API end to end: construct a domain over
// the structure's arena, register a thread id, and let the structure drive
// get_protected/clear/retire/getEra internally.
func ExampleNewList() {
	l := repro.NewList(func(a smr.Allocator, c smr.Config) smr.Backend {
		return repro.NewHazardEras(a, c)
	})
	h := l.Register()
	defer h.Unregister()

	l.Insert(h, 42, 4200)
	if v, ok := l.Get(h, 42); ok {
		fmt.Println("got", v)
	}
	l.Remove(h, 42) // unlink -> retire -> reclaimed when safe
	fmt.Println("len", l.Len())
	// Output:
	// got 4200
	// len 0
}

// ExampleNewHazardEras demonstrates the scheme directly on a shared cell:
// retire() reclaims immediately once no published era covers the object's
// lifetime.
func ExampleNewHazardEras() {
	type node struct{ v uint64 }
	arena := smr.NewArena[node]()
	he := repro.NewHazardEras(arena, smr.Config{MaxThreads: 2, Slots: 1})
	h := he.Register()
	defer he.Unregister(h)

	ref, n := arena.Alloc()
	n.v = 7
	he.OnAlloc(ref) // stamp newEra before publishing

	he.Retire(h, ref) // no reader: freed immediately
	s := he.Stats()
	fmt.Printf("retired=%d freed=%d era=%d\n", s.Retired, s.Freed, s.EraClock)
	// Output:
	// retired=1 freed=1 era=2
}

// ExampleNewSkipList shows ordered range scans under protection.
func ExampleNewSkipList() {
	s := repro.NewSkipList(func(a smr.Allocator, c smr.Config) smr.Backend {
		return repro.NewHazardEras(a, c)
	})
	h := s.Register()
	defer h.Unregister()

	for _, k := range []uint64{30, 10, 20, 40} {
		s.Insert(h, k, k*100)
	}
	s.Range(h, 10, 35, func(k, v uint64) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// 10 1000
	// 20 2000
	// 30 3000
}
