// Concurrent cache: the lock-free hash map under reader-heavy load — the
// "high throughput for readers" scenario the paper's introduction motivates
// (think: a routing table or session cache read on every request, updated
// occasionally).
//
// Run with: go run ./examples/concurrentcache
//
// The same cache code runs under several reclamation schemes; the printed
// throughputs show the paper's trade-off triangle: URCU fastest for readers
// but blocking for reclaimers, HP non-blocking but paying a store per node,
// HE non-blocking with cheap reads — PROVIDED the era clock does not advance
// on every single retire. A dedicated refresher thread churns continuously
// here, so plain HE republishes eras mid-traversal almost every operation;
// the §3.4 k-advance option (HE-k16: advance the clock every 16th retire)
// restores the fast path at the cost of ~16x more pending nodes, which
// Equation 1 still bounds.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/hashmap"
	"repro/smr"
)

const (
	entries  = 8192
	readers  = 6
	writers  = 1
	duration = 500 * time.Millisecond
)

func run(s bench.Scheme) (mops float64, pending int64) {
	cache := hashmap.New(s.Make,
		hashmap.WithMaxThreads(readers+writers+1),
		hashmap.WithBuckets(256))
	dom := cache.Domain()

	setup := cache.Register()
	for k := uint64(0); k < entries; k++ {
		cache.Insert(setup, k, k^0xABCD)
	}
	setup.Unregister()

	var stop atomic.Bool
	var ops atomic.Int64
	var wg sync.WaitGroup
	worker := func(seed uint64, writer bool) {
		defer wg.Done()
		h := cache.Register()
		defer h.Unregister()
		rng := bench.NewSplitMix64(seed)
		var local int64
		for !stop.Load() {
			k := rng.Intn(entries)
			if writer {
				// Cache refresh: replace the entry (remove + insert churns
				// a node through retire()).
				if cache.Remove(h, k) {
					cache.Insert(h, k, rng.Next())
				}
			} else if v, ok := cache.Get(h, k); ok {
				_ = v
			}
			local++
		}
		ops.Add(local)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go worker(uint64(r)+1, false)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go worker(uint64(w)+100, true)
	}
	start := time.Now()
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	st := dom.Stats()
	cache.Drain()
	return float64(ops.Load()) / elapsed.Seconds() / 1e6, st.PeakPending
}

func main() {
	fmt.Printf("cache: %d entries, %d readers + %d refresher, %v\n\n", entries, readers, writers, duration)
	fmt.Printf("%-8s %12s %16s\n", "scheme", "Mops/s", "peak unreclaimed")
	for _, s := range []bench.Scheme{bench.Of(smr.URCU), bench.Of(smr.HE), bench.HEk(16), bench.Of(smr.HP)} {
		mops, peak := run(s)
		fmt.Printf("%-8s %12.3f %16d\n", s.Name, mops, peak)
	}
	fmt.Println("\nk-advance (HE-k16) recovers HE's read fast path under write churn by")
	fmt.Println("letting the era clock advance only every 16th retire (§3.4).")
}
