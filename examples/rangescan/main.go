// Range scans over a concurrent skip list: an ordered index (think: a time-
// series window, or a key range in a storage engine) that is scanned by
// readers while a writer churns insertions and deletions — every scanned
// node protected through Hazard Eras, every replaced node reclaimed.
//
// Run with: go run ./examples/rangescan
//
// This exercises the part of the reclamation story that point lookups
// don't: a scan holds protections across MANY nodes for a long time, and a
// stalled scan is exactly the "sleepy reader" of the paper's Appendix A —
// under HE it pins only the nodes whose lifetimes cover its eras, while new
// churn keeps being reclaimed.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/smr"
)

const (
	keys     = 10_000
	scanners = 3
	duration = 600 * time.Millisecond
)

func heFactory(a smr.Allocator, c smr.Config) smr.Backend {
	return repro.NewHazardEras(a, c)
}

func main() {
	index := repro.NewSkipList(heFactory)
	setup := index.Register()
	for k := uint64(0); k < keys; k++ {
		index.Insert(setup, k, k*10)
	}
	setup.Unregister()

	var stop atomic.Bool
	var scans, scanned, churned atomic.Int64
	var wg sync.WaitGroup

	for w := 0; w < scanners; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			h := index.Register()
			defer h.Unregister()
			rngState := seed
			for !stop.Load() {
				rngState = rngState*6364136223846793005 + 1442695040888963407
				from := rngState % keys
				n := index.Range(h, from, from+200, func(k, v uint64) bool {
					if v != k*10 {
						panic(fmt.Sprintf("corrupt value %d at key %d", v, k))
					}
					return true
				})
				scanned.Add(int64(n))
				scans.Add(1)
			}
		}(uint64(w) + 1)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		h := index.Register()
		defer h.Unregister()
		rngState := uint64(99)
		for !stop.Load() {
			rngState = rngState*6364136223846793005 + 1442695040888963407
			k := rngState % keys
			if index.Remove(h, k) {
				index.Insert(h, k, k*10)
				churned.Add(1)
			}
		}
	}()

	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()

	st := index.Domain().Stats()
	fmt.Printf("index of %d keys, %d scanners + 1 churner, %v\n", keys, scanners, duration)
	fmt.Printf("  %d range scans visited %d elements (every node protected)\n", scans.Load(), scanned.Load())
	fmt.Printf("  %d nodes churned through retire(): freed=%d pending=%d peak=%d\n",
		churned.Load(), st.Freed, st.Pending, st.PeakPending)
	index.Drain()
	fmt.Println("  drained; index empty, nothing leaked")
}
