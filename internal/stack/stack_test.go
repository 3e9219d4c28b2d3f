package stack

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/smr"
)

// schemes are the registry rows the concurrent tests run.
var schemes = []smr.Scheme{smr.HE, smr.HP, smr.EBR, smr.URCU}

func heStack(t *testing.T) *Stack {
	t.Helper()
	return New(smr.HE.Factory(), WithChecked(true), WithMaxThreads(16))
}

func TestEmptyPop(t *testing.T) {
	s := heStack(t)
	h := s.Register()
	if _, ok := s.Pop(h); ok {
		t.Fatal("pop from empty stack succeeded")
	}
}

func TestLIFOOrder(t *testing.T) {
	s := heStack(t)
	h := s.Register()
	for i := uint64(1); i <= 50; i++ {
		s.Push(h, i)
	}
	if s.Len() != 50 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := uint64(50); i >= 1; i-- {
		v, ok := s.Pop(h)
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v, want %d", v, ok, i)
		}
	}
	if _, ok := s.Pop(h); ok {
		t.Fatal("stack should be empty")
	}
}

func TestPopRetiresAndReclaims(t *testing.T) {
	s := heStack(t)
	h := s.Register()
	for i := uint64(0); i < 30; i++ {
		s.Push(h, i)
		s.Pop(h)
	}
	st := s.Domain().Stats()
	if st.Retired != 30 {
		t.Fatalf("Retired = %d", st.Retired)
	}
	if st.Pending > 1 {
		t.Fatalf("Pending = %d", st.Pending)
	}
	// Churn must recycle arena slots, demonstrating the memory is really
	// reused — the property that makes ABA/use-after-free possible at all.
	if s.Arena().Stats().Reuses == 0 {
		t.Fatal("no slot recycling under churn")
	}
}

func TestConcurrentPushPop(t *testing.T) {
	const threads = 8
	per := 2000
	if testing.Short() {
		per = 300
	}
	for _, sch := range schemes {
		t.Run(sch.String(), func(t *testing.T) {
			s := New(sch.Factory(), WithChecked(true), WithMaxThreads(threads))
			var wg sync.WaitGroup
			var balance atomic.Int64 // pushes - successful pops
			var sumPushed, sumPopped atomic.Uint64
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := s.Register()
					defer h.Unregister()
					for i := 0; i < per; i++ {
						if (w+i)%2 == 0 {
							v := uint64(w*per + i + 1)
							s.Push(h, v)
							sumPushed.Add(v)
							balance.Add(1)
						} else if v, ok := s.Pop(h); ok {
							sumPopped.Add(v)
							balance.Add(-1)
						}
					}
				}(w)
			}
			wg.Wait()
			// Drain the remainder and check conservation of values.
			h := s.Register()
			for {
				v, ok := s.Pop(h)
				if !ok {
					break
				}
				sumPopped.Add(v)
				balance.Add(-1)
			}
			if balance.Load() != 0 {
				t.Fatalf("%s: %d values lost or duplicated", sch, balance.Load())
			}
			if sumPushed.Load() != sumPopped.Load() {
				t.Fatalf("%s: value sums differ: pushed %d popped %d", sch, sumPushed.Load(), sumPopped.Load())
			}
			if f := s.Arena().Stats().Faults; f != 0 {
				t.Fatalf("%s: %d memory faults", sch, f)
			}
			s.Drain()
			if live := s.Arena().Stats().Live; live != 0 {
				t.Fatalf("%s: leaked %d nodes", sch, live)
			}
		})
	}
}

// TestGenerationRefsDefeatABA: even with reclamation disabled on the reader
// side (a raw CAS race), the generation bits in the ref prevent the classic
// ABA corruption: a recycled slot's ref never compares equal to its old
// incarnation.
func TestGenerationRefsDefeatABA(t *testing.T) {
	s := heStack(t)
	h := s.Register()
	s.Push(h, 1)
	oldTop := s.top.Peek()
	s.Pop(h)     // retires and (unprotected) frees the node
	s.Push(h, 2) // recycles the same slot
	newTop := s.top.Peek()
	if oldTop == newTop {
		t.Fatal("recycled slot produced an identical ref: ABA possible")
	}
	if got := s.top.CompareAndSwap(oldTop, smr.Ptr[Node]{}); got {
		t.Fatal("stale CAS succeeded: ABA!")
	}
}
