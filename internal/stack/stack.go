// Package stack implements the Treiber lock-free stack (R. K. Treiber,
// 1986) with pointer-based reclamation — the minimal workload for an SMR
// scheme: a single protection slot, one hot CAS target.
//
// The stack is also where this repository's simulated-memory substrate
// shows the classic ABA failure mode most directly: in C++, popping A,
// freeing it, and re-pushing memory at A's address lets a stale
// CAS(top: A -> B-old) succeed and corrupt the stack. Here the ref carries
// a slot generation, so a recycled node never compares equal to its
// previous incarnation — and the reclamation scheme additionally guarantees
// the window never opens while a pop is in flight.
package stack

import (
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
	"repro/smr"
)

// Slots is the number of protection indices the stack needs.
const Slots = 1

// Node is a stack cell.
type Node struct {
	Val  uint64
	Next atomic.Uint64
}

// PoisonNode smashes a freed node for use-after-free visibility.
func PoisonNode(n *Node) {
	n.Val = 0xDEADDEADDEADDEAD
	n.Next.Store(uint64(mem.MakeRef(mem.MaxIndex, 0)))
}

// Stack is a lock-free LIFO.
type Stack struct {
	arena *mem.Arena[Node]
	dom   reclaim.Domain
	top   atomic.Uint64
}

// Option configures a Stack.
type Option func(*config)

type config struct {
	checked bool
	threads int
}

// WithChecked enables the checked (generation-validated, poisoned) arena.
func WithChecked(on bool) Option { return func(c *config) { c.checked = on } }

// WithMaxThreads sets the domain's initial session capacity (default 64);
// the registry grows past it on demand.
func WithMaxThreads(n int) Option { return func(c *config) { c.threads = n } }

// DomainFactory mirrors list.DomainFactory.
type DomainFactory = smr.Factory

// New builds an empty stack reclaimed through mk's domain.
func New(mk DomainFactory, opts ...Option) *Stack {
	c := config{threads: 64}
	for _, o := range opts {
		o(&c)
	}
	arenaOpts := []mem.Option[Node]{mem.WithShards[Node](c.threads)}
	if c.checked {
		arenaOpts = append(arenaOpts, mem.Checked[Node](true), mem.WithPoison[Node](PoisonNode))
	}
	arena := mem.NewArena[Node](arenaOpts...)
	dom := mk(arena, reclaim.Config{MaxThreads: c.threads, Slots: Slots})
	return &Stack{arena: arena, dom: dom}
}

// Domain exposes the reclamation domain.
func (s *Stack) Domain() reclaim.Domain { return s.dom }

// Arena exposes the node arena.
func (s *Stack) Arena() *mem.Arena[Node] { return s.arena }

// Register opens a session on the stack's domain.
func (s *Stack) Register() *smr.Guard { return smr.Adopt(s.dom.Register()) }

// Acquire returns a pooled session on the stack's domain.
func (s *Stack) Acquire() *smr.Guard { return smr.Adopt(s.dom.Acquire()) }

// Push adds v on top. Lock-free.
func (s *Stack) Push(g *smr.Guard, v uint64) {
	h := g.Handle()
	ref, n := s.arena.AllocAt(h.ID())
	n.Val = v
	for {
		top := s.top.Load()
		n.Next.Store(top)
		s.dom.OnAlloc(ref) // birth stamp immediately before publication
		schedtest.Point(schedtest.PointCAS)
		if s.top.CompareAndSwap(top, uint64(ref)) {
			return
		}
	}
}

// Pop removes and returns the top value; ok is false on empty.
func (s *Stack) Pop(g *smr.Guard) (v uint64, ok bool) {
	h := g.Handle()
	h.BeginOp()
	var victim mem.Ref
	for {
		topRef := h.Protect(0, &s.top)
		if topRef.IsNil() {
			h.EndOp()
			return 0, false
		}
		n := s.arena.Get(topRef)
		next := n.Next.Load()
		val := n.Val // protected: safe even if the CAS below fails
		schedtest.Point(schedtest.PointCAS)
		if s.top.CompareAndSwap(uint64(topRef), next) {
			v, ok = val, true
			victim = topRef
			break
		}
	}
	h.EndOp()
	h.Retire(victim)
	return v, ok
}

// Len counts elements; quiescent use only.
func (s *Stack) Len() int {
	n := 0
	for ref := mem.Ref(s.top.Load()); !ref.IsNil(); {
		n++
		ref = mem.Ref(s.arena.Get(ref).Next.Load())
	}
	return n
}

// Drain tears the stack down at quiescence.
func (s *Stack) Drain() {
	ref := mem.Ref(s.top.Load())
	s.top.Store(0)
	for !ref.IsNil() {
		next := mem.Ref(s.arena.Get(ref).Next.Load())
		s.arena.Free(ref)
		ref = next
	}
	s.dom.Drain()
}
