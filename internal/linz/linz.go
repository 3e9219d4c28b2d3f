// Package linz is a Wing-Gong-style linearizability checker over recorded
// concurrent operation histories (J. M. Wing and C. Gong, "Testing and
// Verifying Concurrent Objects", JPDC 1993), with the state-memoization
// refinement later popularized by Lowe's and Knossos' checkers.
//
// The reclamation schemes in this repository guard MEMORY safety; this
// package closes the other half of the correctness argument: that the
// structures built on them (the sets, queue and stack) still implement
// their sequential specification under every scheme — a reclamation bug
// that silently corrupts a node (ABA, premature reuse) surfaces here as a
// non-linearizable history even when no generation check fires.
//
// Histories are recorded per session handle with a Recorder and checked
// against a sequential Model on small bounded workloads (the search is
// exponential in the worst case; the memoized search handles the
// cmd/hecheck workload sizes — tens of operations across a handful of
// workers — in microseconds).
package linz

import "math"

// Entry is one completed operation of a concurrent history: its invocation
// and response timestamps bracket the window in which it took effect.
type Entry struct {
	Proc int    // worker/session id (diagnostics only)
	Op   uint8  // structure-specific opcode (see models.go)
	Arg  uint64 // operation argument (key or value)
	Out  uint64 // returned value
	Ok   bool   // returned success flag
	Call int64  // invocation timestamp
	Ret  int64  // response timestamp
}

// Model is a mutable sequential specification. Apply attempts e atomically
// against the current state: if e's observed result is legal it commits
// the transition and returns an undo closure; otherwise it returns ok
// false and leaves the state unchanged. Key serializes the current state
// for memoizing visited (state, linearized-set) configurations.
type Model interface {
	Apply(e Entry) (undo func(), ok bool)
	Key() string
}

// Check reports whether history is linearizable with respect to the model
// (which must be in the structure's initial state). It implements the
// Wing-Gong recursive search: repeatedly pick a minimal operation — one
// whose invocation precedes every unlinearized response — apply it to the
// model, and backtrack on failure; visited configurations are memoized so
// equivalent interleavings are explored once.
func Check(history []Entry, m Model) bool {
	if len(history) > 64 {
		// The linearized set is a uint64 bitmask; bounded workloads stay
		// far below this.
		panic("linz: history longer than 64 entries")
	}
	c := &checker{history: history, model: m, seen: make(map[memoKey]bool)}
	return c.search(0)
}

type memoKey struct {
	mask  uint64
	state string
}

type checker struct {
	history []Entry
	model   Model
	seen    map[memoKey]bool
}

func (c *checker) search(done uint64) bool {
	if done == (uint64(1)<<len(c.history))-1 {
		return true
	}
	key := memoKey{done, c.model.Key()}
	if c.seen[key] {
		return false
	}
	c.seen[key] = true

	// minRet: the earliest response among unlinearized operations. Any
	// operation invoked after it cannot be linearized next (the earlier
	// response must take effect first).
	minRet := int64(math.MaxInt64)
	for i, e := range c.history {
		if done&(1<<uint(i)) == 0 && e.Ret < minRet {
			minRet = e.Ret
		}
	}
	for i, e := range c.history {
		if done&(1<<uint(i)) != 0 || e.Call > minRet {
			continue
		}
		if undo, ok := c.model.Apply(e); ok {
			if c.search(done | 1<<uint(i)) {
				return true
			}
			undo()
		}
	}
	return false
}
