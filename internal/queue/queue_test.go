package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/smr"
)

// schemes are the registry rows the concurrent tests run.
var schemes = []smr.Scheme{smr.HE, smr.HP, smr.EBR, smr.URCU}

func heQueue(t *testing.T) *Queue {
	t.Helper()
	return New(smr.HE.Factory(), WithChecked(true), WithMaxThreads(16))
}

func TestEmptyDequeue(t *testing.T) {
	q := heQueue(t)
	h := q.Register()
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("dequeue from empty queue succeeded")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestFIFOOrder(t *testing.T) {
	q := heQueue(t)
	h := q.Register()
	for i := uint64(1); i <= 100; i++ {
		q.Enqueue(h, i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := uint64(1); i <= 100; i++ {
		v, ok := q.Dequeue(h)
		if !ok || v != i {
			t.Fatalf("Dequeue = %d,%v, want %d", v, ok, i)
		}
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("queue should be empty")
	}
}

func TestDequeueRetiresDummies(t *testing.T) {
	q := New(func(a smr.Allocator, c smr.Config) smr.Backend {
		d := smr.HE.Factory()(a, c)
		d.(interface{ SetScanThreshold(int) }).SetScanThreshold(1) // Algorithm 3: scan on every retire
		return d
	}, WithChecked(true), WithMaxThreads(16))
	h := q.Register()
	for i := uint64(0); i < 50; i++ {
		q.Enqueue(h, i)
		q.Dequeue(h)
	}
	s := q.Domain().Stats()
	if s.Retired != 50 {
		t.Fatalf("Retired = %d, want 50", s.Retired)
	}
	// Single-threaded: everything retired must have been freed.
	if s.Pending > 1 {
		t.Fatalf("Pending = %d", s.Pending)
	}
	if f := q.Arena().Stats().Faults; f != 0 {
		t.Fatalf("faults: %d", f)
	}
}

func TestInterleavedEnqueueDequeue(t *testing.T) {
	q := heQueue(t)
	h := q.Register()
	q.Enqueue(h, 1)
	q.Enqueue(h, 2)
	if v, _ := q.Dequeue(h); v != 1 {
		t.Fatalf("got %d, want 1", v)
	}
	q.Enqueue(h, 3)
	if v, _ := q.Dequeue(h); v != 2 {
		t.Fatalf("got %d, want 2", v)
	}
	if v, _ := q.Dequeue(h); v != 3 {
		t.Fatalf("got %d, want 3", v)
	}
}

// TestConcurrentMPMC: N producers push disjoint value ranges, N consumers
// pop everything; the union of popped values must be exactly the union of
// pushed ones and per-producer order must be preserved.
func TestConcurrentMPMC(t *testing.T) {
	const producers, consumers = 4, 4
	perProducer := 2000
	if testing.Short() {
		perProducer = 300
	}
	for _, sch := range schemes {
		t.Run(sch.String(), func(t *testing.T) {
			q := New(sch.Factory(), WithChecked(true), WithMaxThreads(producers+consumers))
			var wg sync.WaitGroup
			results := make(chan []uint64, consumers)
			total := producers * perProducer

			var consumed atomic.Int64
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h := q.Register()
					defer h.Unregister()
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
					defer h.Unregister()
					base := uint64(p) << 32
					for i := 0; i < perProducer; i++ {
						q.Enqueue(h, base|uint64(i))
					}
				}(p)
			}
			wg.Wait()
			close(results)

			seen := map[uint64]bool{}
			lastPerProducer := map[uint64]int64{}
			for got := range results {
				perConsumerLast := map[uint64]int64{}
				for _, v := range got {
					if seen[v] {
						t.Fatalf("%s: duplicate value %x", sch, v)
					}
					seen[v] = true
					p, i := v>>32, int64(v&0xffffffff)
					// FIFO per producer per consumer: a consumer must see a
					// producer's values in increasing order.
					if last, ok := perConsumerLast[p]; ok && i < last {
						t.Fatalf("%s: per-producer order violated", sch)
					}
					perConsumerLast[p] = i
					if i > lastPerProducer[p] {
						lastPerProducer[p] = i
					}
				}
			}
			if len(seen) != total {
				t.Fatalf("%s: consumed %d values, want %d", sch, len(seen), total)
			}
			if f := q.Arena().Stats().Faults; f != 0 {
				t.Fatalf("%s: %d memory faults", sch, f)
			}
			q.Drain()
			if live := q.Arena().Stats().Live; live != 0 {
				t.Fatalf("%s: leaked %d nodes", sch, live)
			}
		})
	}
}
