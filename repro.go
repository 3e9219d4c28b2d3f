package repro

import (
	"repro/internal/bst"
	"repro/internal/core"
	"repro/internal/hashmap"
	"repro/internal/hp"
	"repro/internal/list"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/reclaim"
	"repro/internal/skiplist"
	"repro/internal/stack"
	"repro/smr"
)

// This file is the structure-level face of the library. The reclamation API
// itself lives in the smr package — Domain[T], Guard, Atomic[T], and the
// scheme registry whose smr.X.Factory() builds every scheme — and the names
// here are aliases into smr plus constructors for the ported data
// structures and the two option-taking schemes (Hazard Eras, Hazard
// Pointers), so `go doc repro` is the structure reference and
// `go doc repro/smr` the reclamation reference. The implementation stays
// sealed in internal/ packages.

// ---- reclamation API (the smr package) -----------------------------------

// Ref is a packed reference into an Arena: mark bit, size class, slot
// generation, slot index. See smr.Ref.
type Ref = smr.Ref

// NilRef is the null Ref.
const NilRef = smr.NilRef

// Arena is the simulated manual-memory slab allocator all schemes reclaim
// into.
type Arena[T any] = smr.Arena[T]

// ArenaOption configures NewArena.
type ArenaOption[T any] = smr.ArenaOption[T]

// NewArena constructs an arena for nodes of type T.
func NewArena[T any](opts ...ArenaOption[T]) *Arena[T] { return mem.NewArena(opts...) }

// Checked enables generation-validated dereference (use-after-free
// detection) on an arena.
func Checked[T any](on bool) ArenaOption[T] { return smr.Checked[T](on) }

// WithPoison installs a payload poisoner run on every Free.
func WithPoison[T any](poison func(*T)) ArenaOption[T] { return smr.WithPoison(poison) }

// Domain is the uniform scheme-level safe-memory-reclamation interface
// every scheme implements (smr.Backend). Typed user code should prefer
// smr.Domain[T], which wraps one of these together with its arena.
type Domain = smr.Backend

// Guard is a registered reclamation session: where the paper's C++ API
// threads a tid through every call, this library hands each participating
// goroutine a Guard (from a structure's Register/Acquire, or
// smr.Domain.Register) and every structure operation goes through it.
// Registration never fails — the registry grows past its initial capacity
// on demand. See smr.Guard.
type Guard = smr.Guard

// Handle is the internal session a Guard wraps (Guard.Handle). Structures
// in this module speak Guard; Handle remains for code driving the internal
// reclaim API directly.
type Handle = reclaim.Handle

// Allocator is the arena capability a Domain needs (every *Arena[T]
// satisfies it).
type Allocator = smr.Allocator

// Config carries MaxThreads, protection-slot count and optional
// instrumentation, mirroring the paper's HazardEras(maxHEs, maxThreads).
type Config = smr.Config

// Stats is a reclamation-accounting snapshot (PeakPending is the paper's
// Equation-1 quantity).
type Stats = smr.Stats

// Instrument counts reader-side atomic operations (Table 1 reproduction).
type Instrument = smr.Instrument

// NewInstrument allocates instrumentation counters for maxThreads ids.
func NewInstrument(maxThreads int) *Instrument { return smr.NewInstrument(maxThreads) }

// ---- the schemes --------------------------------------------------------

// HazardEras is the paper's algorithm (internal/core).
type HazardEras = core.Eras

// HazardErasOption configures NewHazardEras.
type HazardErasOption = core.Option

// NewHazardEras constructs a Hazard Eras domain over alloc.
func NewHazardEras(alloc Allocator, cfg Config, opts ...HazardErasOption) *HazardEras {
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
func NewHazardPointers(alloc Allocator, cfg Config, opts ...hp.Option) *HazardPointers {
	return hp.New(alloc, cfg, opts...)
}

// ---- data structures ----------------------------------------------------

// DomainFactory builds a Domain over a structure's arena (smr.Factory).
// Pass one of the smr.Scheme factories —
//
//	repro.NewList(smr.HE.Factory())
//
// — or a closure over a parameterized constructor:
//
//	func(a repro.Allocator, c repro.Config) repro.Domain {
//		return repro.NewHazardEras(a, c, repro.WithMinMax(true))
//	}
type DomainFactory = smr.Factory

// List is the Maged-Harris lock-free linked-list set — the structure the
// paper benchmarks.
type List = list.List

// NewList builds a list reclaimed through mk's domain.
func NewList(mk DomainFactory, opts ...list.Option) *List { return list.New(mk, opts...) }

// Map is the Michael lock-free hash table.
type Map = hashmap.Map

// NewMap builds a hash map reclaimed through mk's domain.
func NewMap(mk DomainFactory, opts ...hashmap.Option) *Map { return hashmap.New(mk, opts...) }

// Queue is the Michael-Scott lock-free FIFO.
type Queue = queue.Queue

// NewQueue builds a queue reclaimed through mk's domain.
func NewQueue(mk DomainFactory, opts ...queue.Option) *Queue {
	return queue.New(mk, opts...)
}

// Stack is the Treiber lock-free LIFO.
type Stack = stack.Stack

// NewStack builds a stack reclaimed through mk's domain.
func NewStack(mk DomainFactory, opts ...stack.Option) *Stack {
	return stack.New(mk, opts...)
}

// SkipList is the concurrent ordered map with protected lock-free range
// scans.
type SkipList = skiplist.SkipList

// NewSkipList builds a skip list reclaimed through mk's domain.
func NewSkipList(mk DomainFactory, opts ...skiplist.Option) *SkipList {
	return skiplist.New(mk, opts...)
}

// Tree is the external PATRICIA tree with lock-free deep-path readers
// (the §3.4 workload).
type Tree = bst.Tree

// NewTree builds a tree reclaimed through mk's domain.
func NewTree(mk DomainFactory, opts ...bst.Option) *Tree {
	return bst.New(mk, opts...)
}
