package repro

import (
	"repro/internal/bst"
	"repro/internal/core"
	"repro/internal/hashmap"
	"repro/internal/hp"
	"repro/internal/list"
	"repro/internal/queue"
	"repro/internal/skiplist"
	"repro/internal/stack"
	"repro/smr"
)

// This file is the structure-level face of the library. The reclamation API
// itself lives in the smr package — Domain[T], Guard, Atomic[T], the
// arena, Config, Stats, and the scheme registry whose smr.X.Factory()
// builds every scheme. The names here are the constructors for the ported
// data structures and for the two option-taking schemes (Hazard Eras,
// Hazard Pointers), which smr does not expose, so `go doc repro` is the
// structure reference and `go doc repro/smr` the reclamation reference. The
// implementation stays sealed in internal/ packages. Every structure below
// is written against smr alone, so each of its operations passes the
// Guard's lifecycle checks; only the wait-free queue (internal/wfqueue,
// not exported here) keeps the internal API, because one of its sessions
// spans a node domain and a descriptor domain and a Guard carries one.

// ---- the schemes --------------------------------------------------------

// HazardEras is the paper's algorithm (internal/core).
type HazardEras = core.Eras

// HazardErasOption configures NewHazardEras.
type HazardErasOption = core.Option

// NewHazardEras constructs a Hazard Eras domain over alloc.
func NewHazardEras(alloc smr.Allocator, cfg smr.Config, opts ...HazardErasOption) *HazardEras {
	return core.New(alloc, cfg, opts...)
}

// WithAdvanceEvery is the §3.4 k-advance option: advance the era clock only
// on every k-th retire.
func WithAdvanceEvery(k int) HazardErasOption { return core.WithAdvanceEvery(k) }

// WithMinMax is the §3.4 min/max-publication option for deep traversals.
func WithMinMax(on bool) HazardErasOption { return core.WithMinMax(on) }

// HazardPointers is the Michael 2004 baseline (internal/hp).
type HazardPointers = hp.Pointers

// NewHazardPointers constructs a Hazard Pointers domain over alloc.
func NewHazardPointers(alloc smr.Allocator, cfg smr.Config, opts ...hp.Option) *HazardPointers {
	return hp.New(alloc, cfg, opts...)
}

// ---- data structures ----------------------------------------------------

// Every structure constructor takes an smr.Factory: one of the smr.Scheme
// factories —
//
//	repro.NewList(smr.HE.Factory())
//
// — or a closure over a parameterized constructor:
//
//	func(a smr.Allocator, c smr.Config) smr.Backend {
//		return repro.NewHazardEras(a, c, repro.WithMinMax(true))
//	}

// List is the Maged-Harris lock-free linked-list set — the structure the
// paper benchmarks.
type List = list.List

// NewList builds a list reclaimed through mk's domain.
func NewList(mk smr.Factory, opts ...list.Option) *List { return list.New(mk, opts...) }

// Map is the Michael lock-free hash table.
type Map = hashmap.Map

// NewMap builds a hash map reclaimed through mk's domain.
func NewMap(mk smr.Factory, opts ...hashmap.Option) *Map { return hashmap.New(mk, opts...) }

// Queue is the Michael-Scott lock-free FIFO.
type Queue = queue.Queue

// NewQueue builds a queue reclaimed through mk's domain.
func NewQueue(mk smr.Factory, opts ...queue.Option) *Queue {
	return queue.New(mk, opts...)
}

// Stack is the Treiber lock-free LIFO.
type Stack = stack.Stack

// NewStack builds a stack reclaimed through mk's domain.
func NewStack(mk smr.Factory, opts ...stack.Option) *Stack {
	return stack.New(mk, opts...)
}

// SkipList is the concurrent ordered map with protected lock-free range
// scans.
type SkipList = skiplist.SkipList

// NewSkipList builds a skip list reclaimed through mk's domain.
func NewSkipList(mk smr.Factory, opts ...skiplist.Option) *SkipList {
	return skiplist.New(mk, opts...)
}

// Tree is the external PATRICIA tree with lock-free deep-path readers
// (the §3.4 workload).
type Tree = bst.Tree

// NewTree builds a tree reclaimed through mk's domain.
func NewTree(mk smr.Factory, opts ...bst.Option) *Tree {
	return bst.New(mk, opts...)
}
