// Go-test benchmarks for the two questions no other harness in the
// repository times: the isolated per-node protect cost of every scheme
// (Table 1's rightmost column, quoted in README) and the lock-free against
// wait-free queue (§3.2). Figure 4, Equation 1 and the §3.4 ablations are
// cmd/hebench experiments; the read path layer by layer is cmd/heperf's
// ledger. `go test -bench=. -benchmem .` runs these two.
//
// Naming map:
//
//	BenchmarkTable1_ProtectCost       Table 1, "average per-node synchronization"
//	BenchmarkExtension_WaitFreeQueue  §3.2 / [26], HE inside a wait-free queue
package repro_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/reclaim"
	"repro/internal/wfqueue"
	"repro/smr"
)

// BenchmarkTable1_ProtectCost measures the per-node reader-side protection
// cost in isolation (Table 1's rightmost column): a single protected load
// through each scheme. HP pays its seq-cst store every time; HE's fast path
// is two loads.
func BenchmarkTable1_ProtectCost(b *testing.B) {
	type node struct{ v uint64 }
	for _, s := range bench.AllSchemes() {
		b.Run(s.Name, func(b *testing.B) {
			arena := mem.NewArena[node]()
			dom := s.Make(arena, reclaim.Config{MaxThreads: 8, Slots: 3})
			ref, _ := arena.Alloc()
			dom.OnAlloc(ref)
			var cell atomic.Uint64
			cell.Store(uint64(ref))
			h := dom.Register()
			defer dom.Unregister(h)
			b.ResetTimer()
			// One operation protects many nodes (a traversal); open and
			// close the critical section every 128 protects so the
			// per-operation costs (Clear, read-lock) amortize exactly as
			// they do in a list traversal of that length.
			dom.BeginOp(h)
			for i := 0; i < b.N; i++ {
				if i&127 == 127 {
					dom.EndOp(h)
					dom.BeginOp(h)
				}
				dom.Protect(h, 0, &cell)
			}
			dom.EndOp(h)
		})
	}
}

// BenchmarkExtension_WaitFreeQueue compares the lock-free Michael-Scott
// queue against the wait-free Kogan-Petrank queue (paper §3.2/[26]: HE used
// inside a wait-free algorithm keeps its wait-free progress). The gap is
// the cost of the universal progress guarantee, not of the reclamation.
func BenchmarkExtension_WaitFreeQueue(b *testing.B) {
	for _, s := range []bench.Scheme{bench.Of(smr.HE), bench.Of(smr.HP)} {
		b.Run("MS-lockfree/"+s.Name, func(b *testing.B) {
			q := queue.New(s.Make, queue.WithMaxThreads(64))
			b.RunParallel(func(pb *testing.PB) {
				h := q.Register()
				defer h.Unregister()
				i := 0
				for pb.Next() {
					if i%2 == 0 {
						q.Enqueue(h, uint64(i))
					} else {
						q.Dequeue(h)
					}
					i++
				}
			})
			b.StopTimer()
			q.Drain()
		})
		b.Run("KP-waitfree/"+s.Name, func(b *testing.B) {
			q := wfqueue.New(s.Make, wfqueue.WithMaxThreads(64))
			b.RunParallel(func(pb *testing.PB) {
				h := q.Register()
				defer q.Unregister(h)
				i := 0
				for pb.Next() {
					if i%2 == 0 {
						q.Enqueue(h, uint64(i))
					} else {
						q.Dequeue(h)
					}
					i++
				}
			})
			b.StopTimer()
			q.Drain()
		})
	}
}
