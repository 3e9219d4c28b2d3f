package mem

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"
)

type benchPayload struct {
	key  uint64
	next uint64
}

// BenchmarkArenaAllocFree measures the allocator's alloc/free cycle under
// parallel load. Run with -cpu 8 for the headline 8-goroutine comparison.
func BenchmarkArenaAllocFree(b *testing.B) {
	b.Run("global", func(b *testing.B) {
		a := NewArena[benchPayload]()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				ref, p := a.Alloc()
				p.key = uint64(ref)
				a.Free(ref)
			}
		})
	})
	b.Run("sharded", func(b *testing.B) {
		a := NewArena[benchPayload](WithShards[benchPayload](64))
		var nextShard atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			shard := int(nextShard.Add(1) - 1)
			for pb.Next() {
				ref, p := a.AllocAt(shard)
				p.key = uint64(ref)
				a.FreeAt(shard, ref)
			}
		})
	})
}

// BenchmarkArenaWalk measures the arena dereference per hop: one Get and
// one link load on each of 1000 list-shaped nodes. "sequential" links the
// nodes in allocation order, a stride the hardware prefetcher follows;
// "shuffled" links them in a seeded random order, as a list prefilled with
// permuted keys ends up, so each hop lands on a slot the last one did not
// predict and the walk costs what the slab's value stride makes it.
func BenchmarkArenaWalk(b *testing.B) {
	const nodes = 1000
	for _, order := range []string{"sequential", "shuffled"} {
		b.Run(order, func(b *testing.B) {
			a := NewArena[node]()
			refs := make([]Ref, nodes)
			for i := range refs {
				refs[i], _ = a.Alloc()
			}
			if order == "shuffled" {
				rand.New(rand.NewPCG(1, 1)).Shuffle(nodes, func(i, j int) {
					refs[i], refs[j] = refs[j], refs[i]
				})
			}
			for i := 0; i+1 < nodes; i++ {
				a.Get(refs[i]).next.Store(uint64(refs[i+1]))
			}
			head := refs[0]
			b.ResetTimer()
			for hops := 0; hops < b.N; {
				for r := head; !r.IsNil(); r = Ref(a.Get(r).next.Load()) {
					hops++
				}
			}
		})
	}
}
