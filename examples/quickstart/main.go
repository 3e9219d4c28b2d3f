// Quickstart: a lock-free Harris-Michael list with Hazard Eras reclamation,
// written entirely against the public smr API.
//
// Run with: go run ./examples/quickstart
//
// The flow is the one the paper prescribes: construct a domain over the
// node arena (HazardEras(maxHEs, maxThreads)), open a Guard per
// participating goroutine, and let the structure call get_protected/clear/
// retire/getEra internally. Switching smr.HE to smr.HP (or EBR/URCU/IBR)
// swaps the reclamation scheme without touching any data-structure code —
// the paper's "drop-in replacement" claim.
package main

import (
	"fmt"

	"repro/internal/list"
	"repro/smr"
)

func main() {
	// A Harris-Michael set whose nodes are reclaimed with Hazard Eras.
	l := list.New(smr.HE.Factory(), list.WithMaxThreads(8))

	// Every participating goroutine opens a Guard — its reclamation
	// session (the role the paper's tid plays, with the per-thread state
	// cached inside it).
	g := l.Register()
	defer g.Unregister()

	for k := uint64(1); k <= 5; k++ {
		l.Insert(g, k, k*100)
	}
	fmt.Println("inserted 1..5, list length:", l.Len())

	if v, ok := l.Get(g, 3); ok {
		fmt.Println("Get(3) =", v)
	}

	// Remove + re-insert churns nodes through retire(): the old node is
	// reclaimed by the session's next scan, which runs once per H retires
	// (H = sessions registered × protection slots, here 1 × 3), since no
	// published era covers its lifetime. The last retires may still wait
	// for that scan below.
	for i := 0; i < 1000; i++ {
		l.Remove(g, 3)
		l.Insert(g, 3, 300)
	}

	s := l.SMR().Stats()
	fmt.Printf("after churn: retired=%d freed=%d pending=%d eraClock=%d\n",
		s.Retired, s.Freed, s.Pending, s.EraClock)
	fmt.Printf("arena: allocs=%d frees=%d live=%d (recycled %d slots)\n",
		l.Arena().Stats().Allocs, l.Arena().Stats().Frees,
		l.Arena().Stats().Live, l.Arena().Stats().Reuses)

	l.Drain()
	fmt.Println("after drain, live slots:", l.Arena().Stats().Live)
}
