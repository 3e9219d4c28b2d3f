package mem

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkArenaAllocFreeClass measures the per-class alloc/free hot path:
// each goroutine runs a tight AllocBytesAt/FreeAt loop against its own shard
// magazine, so in steady state allocation is a magazine pop and free is a
// magazine push — O(1) and allocation-free regardless of class size. The
// per-class spread (16B vs 4KB within noise of each other) is the claim;
// heperf's traced mem.bytes_alloc_free_ns row measures the same path end to
// end.
func BenchmarkArenaAllocFreeClass(b *testing.B) {
	for _, size := range []int{16, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			a := NewArena[uint64](WithByteClasses[uint64](), WithShards[uint64](256))
			var nextShard atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				shard := int(nextShard.Add(1) - 1)
				for pb.Next() {
					ref, p := a.AllocBytesAt(shard, size)
					p[0] = 1
					a.FreeAt(shard, ref)
				}
			})
		})
	}
}

// BenchmarkArenaAllocFreeBytesShared is the contended baseline: every
// operation hits the shared per-class freelist (no magazines), isolating
// what the batched spill/refill saves.
func BenchmarkArenaAllocFreeBytesShared(b *testing.B) {
	for _, size := range []int{64, 1024} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			a := NewArena[uint64](WithByteClasses[uint64](), WithShards[uint64](0))
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					ref, p := a.AllocBytesAt(-1, size)
					p[0] = 1
					a.FreeAt(-1, ref)
				}
			})
		})
	}
}
