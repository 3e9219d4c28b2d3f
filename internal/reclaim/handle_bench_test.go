package reclaim_test

import (
	"testing"

	"repro/internal/mem"
)

// BenchmarkHandleChurn measures the session-lifecycle cost the handle
// refactor introduces: a full open/close per iteration, either through the
// registry (Register/Unregister — slot recycling under the mutex) or the
// handle pool (Acquire/Release — the path goroutine-pool workloads use).
// Run with -cpu 8 to contend the registry lock.
func BenchmarkHandleChurn(b *testing.B) {
	for _, s := range retireSchemes() {
		b.Run(s.name+"/register", func(b *testing.B) {
			arena := mem.NewArena[bnode]()
			d := s.mk(arena)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					h := d.Register()
					d.Unregister(h)
				}
			})
		})
		b.Run(s.name+"/acquire", func(b *testing.B) {
			arena := mem.NewArena[bnode]()
			d := s.mk(arena)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					h := d.Acquire()
					d.Release(h)
				}
			})
		})
	}
}
