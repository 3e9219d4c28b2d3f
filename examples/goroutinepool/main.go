// Goroutine pools and session handles: many more goroutines than the
// registry's initial capacity, with two ways to give each one a session.
//
// Run with: go run ./examples/goroutinepool
//
// The paper's C++ API sizes everything at construction —
// HazardEras(maxHEs, maxThreads) — and a thread beyond maxThreads is a
// hard error. That model fits pinned-thread benchmarks but not Go servers,
// where goroutines are cheap, short-lived and unbounded. This example
// shows the session-handle model that replaces it:
//
//  1. Register never fails: the registry starts at the configured initial
//     capacity and grows by publishing new slot blocks on demand, so 64
//     goroutines holding sessions at once against a 4-session registry
//     just works. Scanners walk whatever chain is published; a grown
//     block is visible to every scan that could free something its
//     sessions protect.
//
//  2. Acquire/Release pools live sessions: a goroutine that borrows a
//     handle for one request and returns it afterwards skips the registry
//     mutex, reuses a warm handle (cached counter stripes, scratch
//     buffers) and keeps the registry no larger than the borrowing
//     high-water mark — the right call-pattern for request handlers and
//     worker pools (about 5x cheaper than Register/Unregister; measure
//     with go test -run '^$' -bench BenchmarkHandleChurn ./internal/reclaim/).
package main

import (
	"fmt"
	"sync"

	"repro/internal/hashmap"
	"repro/smr"
)

const (
	initialCapacity = 4
	goroutines      = 64
	opsPerGoroutine = 200
)

func newMap() *hashmap.Map {
	return hashmap.New(smr.HE.Factory(),
		hashmap.WithMaxThreads(initialCapacity), hashmap.WithBuckets(16))
}

// capacity reads the registry's slot capacity; every scheme domain embeds
// reclaim.Base, which provides it.
func capacity(dom any) int { return dom.(interface{ Capacity() int }).Capacity() }

// part1 holds 64 registered sessions OPEN at the same time against an
// initial capacity of 4: the old fixed registry panicked here; the grown
// slot-block chain absorbs it.
func part1() {
	m := newMap()
	dom := m.Domain()

	var ready, proceed, done sync.WaitGroup
	ready.Add(goroutines)
	proceed.Add(1)
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			s := m.Register() // 4 slots pre-exist; the rest are grown
			defer s.Unregister()
			ready.Done()
			proceed.Wait() // every session is simultaneously live here
			base := uint64(g) * opsPerGoroutine
			for i := uint64(0); i < opsPerGoroutine; i++ {
				m.Insert(s, base+i, i)
				m.Remove(s, base+i)
			}
		}(g)
	}
	ready.Wait()
	grownTo := capacity(dom)
	proceed.Done()
	done.Wait()

	s := dom.Stats()
	fmt.Println("part 1: 64 concurrent Register() against initial capacity 4")
	fmt.Printf("  registry grew %d -> %d while all sessions were live; no registration failed\n",
		initialCapacity, grownTo)
	fmt.Printf("  retired=%d freed=%d pending=%d (grown blocks scan like the first one)\n\n",
		s.Retired, s.Freed, s.Pending)
	m.Drain()
}

// part2 churns the same 64 goroutines through Acquire/Release: handles are
// borrowed, used and returned, so the registry only reflects how many were
// ever borrowed AT ONCE, not how many goroutines passed through.
func part2() {
	m := newMap()
	dom := m.Domain()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) * opsPerGoroutine
			for i := uint64(0); i < opsPerGoroutine; i++ {
				s := m.Acquire() // pooled: no registry mutex on the warm path
				m.Insert(s, base+i, i)
				m.Remove(s, base+i)
				s.Release()
			}
		}(g)
	}
	wg.Wait()

	s := dom.Stats()
	fmt.Println("part 2: 64 goroutines x 200 borrow/return cycles through Acquire/Release")
	fmt.Printf("  registry capacity settled at %d (the borrowing high-water mark, not %d sessions)\n",
		capacity(dom), goroutines*opsPerGoroutine)
	fmt.Printf("  retired=%d freed=%d pending=%d\n", s.Retired, s.Freed, s.Pending)
	m.Drain()
}

func main() {
	part1()
	part2()
}
