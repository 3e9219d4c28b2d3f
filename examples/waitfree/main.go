// Wait-free end to end: the Kogan-Petrank wait-free queue with Hazard Eras
// reclamation — the combination the paper argues for in §3.2 and §C
// ("there is little benefit in designing a wait-free queue and then use a
// quiescence-based memory reclamation ... knowing that such a technique is
// blocking for reclaimers").
//
// Run with: go run ./examples/waitfree
//
// Part 1 demonstrates helping: a thread announces an enqueue and then goes
// to sleep without taking a single further step; another thread's operation
// completes it. Part 2 compares the wait-free queue against the lock-free
// Michael-Scott queue under the same reclamation scheme — the throughput
// cost of the wait-freedom guarantee.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/queue"
	"repro/internal/wfqueue"
	"repro/smr"
)

func helpedCompletion() {
	q := wfqueue.New(smr.HE.Factory(), wfqueue.WithMaxThreads(4))
	sleeper := q.Register()
	helper := q.Register()
	defer q.Unregister(sleeper)
	defer q.Unregister(helper)

	// The sleeper announces an enqueue of 42 via Announce (the first half
	// of Enqueue) and stalls forever before helping itself.
	q.Announce(sleeper, 42)

	// The helper's own operation must first complete every announced
	// operation with an older phase — including the sleeper's.
	q.Enqueue(helper, 7)

	v1, _ := q.Dequeue(helper)
	v2, _ := q.Dequeue(helper)
	fmt.Printf("part 1: sleeper's 42 completed by the helper; dequeue order: %d, %d\n", v1, v2)
}

const workers = 4
const dur = 500 * time.Millisecond

// run drives either queue through its session API; H is *smr.Guard for
// the Michael-Scott queue and *wfqueue.Handle (two domain sessions plus an
// announcement cell) for the wait-free one.
func run[H any](enq func(H, uint64), deq func(H) (uint64, bool),
	register func() H, unregister func(H)) float64 {
	var stop atomic.Bool
	var ops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(producer bool) {
			defer wg.Done()
			h := register()
			defer unregister(h)
			var local int64
			for !stop.Load() {
				if producer {
					enq(h, uint64(local))
				} else {
					deq(h)
				}
				local++
			}
			ops.Add(local)
		}(w%2 == 0)
	}
	start := time.Now()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return float64(ops.Load()) / time.Since(start).Seconds() / 1e6
}

func throughput() {
	lf := queue.New(smr.HE.Factory(), queue.WithMaxThreads(workers+1))
	lfMops := run(lf.Enqueue, lf.Dequeue, lf.Register, (*smr.Guard).Unregister)
	lf.Drain()

	wf := wfqueue.New(smr.HE.Factory(), wfqueue.WithMaxThreads(workers+1))
	wfMops := run(wf.Enqueue, wf.Dequeue, wf.Register, wf.Unregister)
	wf.Drain()

	fmt.Printf("part 2: %d workers, %v, Hazard Eras reclamation\n", workers, dur)
	fmt.Printf("  lock-free Michael-Scott queue: %7.3f Mops/s (lock-free: someone always progresses)\n", lfMops)
	fmt.Printf("  wait-free Kogan-Petrank queue: %7.3f Mops/s (wait-free: EVERYONE progresses in bounded steps)\n", wfMops)
	fmt.Println("  the gap is the price of the universal progress guarantee (helping + phases);")
	fmt.Println("  the reclamation itself stays non-blocking in both, as the paper requires.")
}

func main() {
	helpedCompletion()
	throughput()
}
