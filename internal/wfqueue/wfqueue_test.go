package wfqueue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/smr"
)

// schemes are the registry rows the concurrent tests run.
var schemes = []smr.Scheme{smr.HE, smr.HP}

func heQueue(t *testing.T, threads int) *Queue {
	t.Helper()
	return New(smr.HE.Factory(), WithChecked(true), WithMaxThreads(threads))
}

func TestEmptyDequeue(t *testing.T) {
	q := heQueue(t, 4)
	h := q.Register()
	defer q.Unregister(h)
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("dequeue from empty queue succeeded")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestFIFOOrderSingleThread(t *testing.T) {
	q := heQueue(t, 4)
	h := q.Register()
	defer q.Unregister(h)
	for i := uint64(1); i <= 200; i++ {
		q.Enqueue(h, i)
	}
	if q.Len() != 200 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := uint64(1); i <= 200; i++ {
		v, ok := q.Dequeue(h)
		if !ok || v != i {
			t.Fatalf("Dequeue = %d,%v, want %d", v, ok, i)
		}
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("queue should be empty")
	}
	if f := q.NodeArena().Stats().Faults + q.DescArena().Stats().Faults; f != 0 {
		t.Fatalf("faults: %d", f)
	}
}

func TestInterleavedOps(t *testing.T) {
	q := heQueue(t, 4)
	h := q.Register()
	defer q.Unregister(h)
	q.Enqueue(h, 1)
	q.Enqueue(h, 2)
	if v, _ := q.Dequeue(h); v != 1 {
		t.Fatalf("want 1, got %d", v)
	}
	q.Enqueue(h, 3)
	if v, _ := q.Dequeue(h); v != 2 {
		t.Fatalf("want 2, got %d", v)
	}
	if v, _ := q.Dequeue(h); v != 3 {
		t.Fatalf("want 3, got %d", v)
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("should be empty")
	}
	// Alternating empty/non-empty transitions.
	for i := 0; i < 20; i++ {
		q.Enqueue(h, uint64(i))
		if v, ok := q.Dequeue(h); !ok || v != uint64(i) {
			t.Fatalf("round %d: %d,%v", i, v, ok)
		}
		if _, ok := q.Dequeue(h); ok {
			t.Fatal("phantom element")
		}
	}
}

func TestReclamationAccounting(t *testing.T) {
	q := heQueue(t, 4)
	h := q.Register()
	defer q.Unregister(h)
	for i := 0; i < 100; i++ {
		q.Enqueue(h, uint64(i))
		q.Dequeue(h)
	}
	ns := q.NodeDomain().Stats()
	if ns.Retired != 100 {
		t.Fatalf("node Retired = %d, want 100", ns.Retired)
	}
	if ns.Pending > 1 {
		t.Fatalf("node Pending = %d (single-threaded must reclaim)", ns.Pending)
	}
	ds := q.DescDomain().Stats()
	if ds.Retired < 200 {
		t.Fatalf("desc Retired = %d, want >= 200 (one per op announce)", ds.Retired)
	}
	// Descriptor arena must be recycling, not growing linearly.
	if q.DescArena().Stats().Reuses == 0 {
		t.Fatal("descriptor slots never recycled")
	}
}

// TestHelpedCompletion: a slow announcer's operation is completed by other
// threads' help. We emulate it by announcing via the internal descriptor
// machinery and letting another thread's operation finish it.
func TestHelpedCompletion(t *testing.T) {
	q := heQueue(t, 4)
	a := q.Register()
	b := q.Register()
	defer q.Unregister(a)
	defer q.Unregister(b)

	// Thread a announces an enqueue but "stalls" before helping itself.
	q.Announce(a, 77)

	// Thread b performs its own op with a later phase: it must help a's.
	q.Enqueue(b, 88)

	// a's value must already be in the queue, ahead of b's.
	if v, ok := q.Dequeue(b); !ok || v != 77 {
		t.Fatalf("helped enqueue lost: %d,%v", v, ok)
	}
	if v, ok := q.Dequeue(b); !ok || v != 88 {
		t.Fatalf("helper's own enqueue lost: %d,%v", v, ok)
	}
}

func TestConcurrentMPMCConservation(t *testing.T) {
	const producers, consumers = 3, 3
	perProducer := 1500
	if testing.Short() {
		perProducer = 200
	}
	for _, sch := range schemes {
		t.Run(sch.String(), func(t *testing.T) {
			q := New(sch.Factory(), WithChecked(true), WithMaxThreads(producers+consumers))
			total := producers * perProducer
			var consumed atomic.Int64
			results := make(chan []uint64, consumers)
			var wg sync.WaitGroup

			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h := q.Register()
					defer q.Unregister(h)
					var got []uint64
					for {
						v, ok := q.Dequeue(h)
						if ok {
							got = append(got, v)
							consumed.Add(1)
							continue
						}
						if consumed.Load() >= int64(total) {
							results <- got
							return
						}
						runtime.Gosched()
					}
				}()
			}
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					h := q.Register()
					defer q.Unregister(h)
					base := uint64(p) << 32
					for i := 0; i < perProducer; i++ {
						q.Enqueue(h, base|uint64(i))
					}
				}(p)
			}
			wg.Wait()
			close(results)

			seen := map[uint64]bool{}
			for got := range results {
				perProducerLast := map[uint64]int64{}
				for _, v := range got {
					if seen[v] {
						t.Fatalf("%s: duplicate value %x", sch, v)
					}
					seen[v] = true
					p, i := v>>32, int64(v&0xffffffff)
					if last, ok := perProducerLast[p]; ok && i < last {
						t.Fatalf("%s: per-producer FIFO violated", sch)
					}
					perProducerLast[p] = i
				}
			}
			if len(seen) != total {
				t.Fatalf("%s: consumed %d, want %d", sch, len(seen), total)
			}
			if f := q.NodeArena().Stats().Faults + q.DescArena().Stats().Faults; f != 0 {
				t.Fatalf("%s: %d memory faults", sch, f)
			}
			q.Drain()
			if live := q.NodeArena().Stats().Live; live != 0 {
				t.Fatalf("%s: leaked %d nodes", sch, live)
			}
			if live := q.DescArena().Stats().Live; live != 0 {
				t.Fatalf("%s: leaked %d descriptors", sch, live)
			}
		})
	}
}

// TestPhaseMonotonicity: announced phases strictly order operations enough
// for helping; two sequential ops by one thread must use increasing phases.
func TestPhaseMonotonicity(t *testing.T) {
	q := heQueue(t, 2)
	h := q.Register()
	defer q.Unregister(h)
	q.Enqueue(h, 1)
	d1 := q.descs.Get(mem0(h.cell.Load()))
	p1 := d1.Phase
	q.Enqueue(h, 2)
	d2 := q.descs.Get(mem0(h.cell.Load()))
	if d2.Phase <= p1 {
		t.Fatalf("phases not increasing: %d then %d", p1, d2.Phase)
	}
}

func TestDrainEmptiesArenas(t *testing.T) {
	q := heQueue(t, 4)
	h := q.Register()
	for i := 0; i < 30; i++ {
		q.Enqueue(h, uint64(i))
	}
	for i := 0; i < 10; i++ {
		q.Dequeue(h)
	}
	q.Unregister(h)
	q.Drain()
	if live := q.NodeArena().Stats().Live; live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
	if live := q.DescArena().Stats().Live; live != 0 {
		t.Fatalf("leaked %d descriptors", live)
	}
}

// mem0 converts a raw state word to a Ref (test shorthand).
func mem0(v uint64) mem.Ref { return mem.Ref(v) }
