// Benchmarks regenerating the paper's evaluation as go-test benchmarks —
// one Benchmark function per table/figure (the cmd/hebench tool produces the
// full formatted reports; these provide ns/op-style numbers and allocate the
// work to testing.B so `go test -bench=. -benchmem` reproduces the shapes).
//
// Naming map:
//
//	BenchmarkTable1_ProtectCost    Table 1, "average per-node synchronization"
//	BenchmarkTable1_RetireCost     Table 1, reclaimer-side cost per retire
//	BenchmarkFig4_*                Figure 4, one per (size, update%) panel
//	BenchmarkEq1_BoundedChurn      §3.1 / Equation 1 (churn with stalled reader)
//	BenchmarkAblation_KAdvance     §3.4 k-advance
//	BenchmarkAblation_MinMaxBST    §3.4 min/max publication on deep traversals
package repro_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/bst"
	"repro/internal/list"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/reclaim"
	"repro/internal/wfqueue"
	"repro/smr"
)

// fig4Schemes mirrors the paper's Figure 4 roster.
func fig4Schemes() []bench.Scheme {
	return []bench.Scheme{bench.Of(smr.HP), bench.Of(smr.HE), bench.Of(smr.URCU)}
}

// benchListWorkload runs the paper's §4 procedure under testing.B.
func benchListWorkload(b *testing.B, s bench.Scheme, size uint64, updatePct int) {
	b.Helper()
	l := list.New(list.DomainFactory(s.Make), list.WithMaxThreads(64))
	bench.Prefill(l, size)
	dom := l.Domain()
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := l.Register()
		defer h.Unregister()
		rng := bench.NewSplitMix64(seed.Add(1) * 0x9E37)
		for pb.Next() {
			k := rng.Intn(size)
			if updatePct > 0 && rng.Intn(100) < uint64(updatePct) {
				if l.Remove(h, k) {
					l.Insert(h, k, k)
				}
			} else {
				l.Contains(h, k)
			}
		}
	})
	b.StopTimer()
	st := dom.Stats()
	b.ReportMetric(float64(st.PeakPending), "peak-pending")
	l.Drain()
}

func fig4Panel(b *testing.B, size uint64, updatePct int) {
	b.Helper()
	for _, s := range fig4Schemes() {
		b.Run(s.Name, func(b *testing.B) { benchListWorkload(b, s, size, updatePct) })
	}
}

// Figure 4, top row: 100-item list.
func BenchmarkFig4_Size100_Upd0(b *testing.B)   { fig4Panel(b, 100, 0) }
func BenchmarkFig4_Size100_Upd10(b *testing.B)  { fig4Panel(b, 100, 10) }
func BenchmarkFig4_Size100_Upd100(b *testing.B) { fig4Panel(b, 100, 100) }

// Figure 4, middle row: 1000-item list.
func BenchmarkFig4_Size1000_Upd0(b *testing.B)   { fig4Panel(b, 1000, 0) }
func BenchmarkFig4_Size1000_Upd10(b *testing.B)  { fig4Panel(b, 1000, 10) }
func BenchmarkFig4_Size1000_Upd100(b *testing.B) { fig4Panel(b, 1000, 100) }

// Figure 4, bottom row: 10000-item list.
func BenchmarkFig4_Size10000_Upd0(b *testing.B)   { fig4Panel(b, 10000, 0) }
func BenchmarkFig4_Size10000_Upd10(b *testing.B)  { fig4Panel(b, 10000, 10) }
func BenchmarkFig4_Size10000_Upd100(b *testing.B) { fig4Panel(b, 10000, 100) }

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

// BenchmarkTable1_RetireCost measures the reclaimer side: one allocation,
// publication, unlink and retire per iteration (steady-state churn of a
// single shared cell). URCU's figure includes its blocking synchronize.
func BenchmarkTable1_RetireCost(b *testing.B) {
	type node struct{ v uint64 }
	for _, s := range bench.AllSchemes() {
		b.Run(s.Name, func(b *testing.B) {
			arena := mem.NewArena[node]()
			dom := s.Make(arena, reclaim.Config{MaxThreads: 8, Slots: 3})
			h := dom.Register()
			defer dom.Unregister(h)
			var cell atomic.Uint64
			seed, _ := arena.Alloc()
			dom.OnAlloc(seed)
			cell.Store(uint64(seed))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref, _ := arena.Alloc()
				dom.OnAlloc(ref)
				old := mem.Ref(cell.Swap(uint64(ref)))
				dom.Retire(h, old)
			}
			b.StopTimer()
			dom.Drain()
		})
	}
}

// BenchmarkEq1_BoundedChurn measures update churn throughput with a stalled
// reader pinned mid-operation — the Equation-1 regime. The peak-pending
// metric shows HE/HP bounded versus EBR growing with b.N.
func BenchmarkEq1_BoundedChurn(b *testing.B) {
	for _, s := range []bench.Scheme{bench.Of(smr.HE), bench.Of(smr.HP), bench.Of(smr.EBR)} {
		b.Run(s.Name, func(b *testing.B) {
			l := list.New(list.DomainFactory(s.Make), list.WithMaxThreads(8))
			bench.Prefill(l, 100)
			release := make(chan struct{})
			done := bench.StalledReader(l, release)
			dom := l.Domain()
			h := l.Register()
			rng := bench.NewSplitMix64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := rng.Intn(100)
				if l.Remove(h, k) {
					l.Insert(h, k, k)
				}
			}
			b.StopTimer()
			st := dom.Stats()
			b.ReportMetric(float64(st.PeakPending), "peak-pending")
			h.Unregister()
			close(release)
			<-done
			l.Drain()
		})
	}
}

// BenchmarkAblation_KAdvance: §3.4 era-clock k-advance under a 10%-update
// list workload.
func BenchmarkAblation_KAdvance(b *testing.B) {
	for _, k := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchListWorkload(b, bench.HEk(k), 1000, 10)
		})
	}
}

// BenchmarkAblation_MinMaxBST: §3.4 min/max era publication on deep BST
// traversals (one protection slot per tree level, 66 slots total).
func BenchmarkAblation_MinMaxBST(b *testing.B) {
	const size = 10000
	for _, s := range []bench.Scheme{bench.Of(smr.HP), bench.Of(smr.HE), bench.Of(smr.HEMinMax)} {
		b.Run(s.Name, func(b *testing.B) {
			tr := bst.New(bst.DomainFactory(s.Make), bst.WithMaxThreads(64))
			bench.Prefill(tr, size)
			var seed atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h := tr.Register()
				defer h.Unregister()
				rng := bench.NewSplitMix64(seed.Add(1))
				for pb.Next() {
					k := rng.Intn(size)
					if rng.Intn(100) < 10 {
						if tr.Remove(h, k) {
							tr.Insert(h, k, k)
						}
					} else {
						tr.Contains(h, k)
					}
				}
			})
			b.StopTimer()
			tr.Drain()
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
			q := queue.New(queue.DomainFactory(s.Make), queue.WithMaxThreads(64))
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
			q := wfqueue.New(wfqueue.DomainFactory(s.Make), wfqueue.WithMaxThreads(64))
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
