// Package stack implements the Treiber lock-free stack (R. K. Treiber,
// 1986) with pointer-based reclamation — the minimal workload for an SMR
// scheme: a single protection slot, one hot CAS target. Like
// internal/list, it is written entirely against the public smr API.
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
	"repro/internal/schedtest"
	"repro/smr"
)

// Slots is the number of protection indices the stack needs.
const Slots = 1

// Node is a stack cell.
type Node struct {
	Val  uint64
	Next smr.Atomic[Node]
}

// PoisonNode smashes a freed node for use-after-free visibility.
func PoisonNode(n *Node) {
	n.Val = 0xDEADDEADDEADDEAD
	n.Next.Store(smr.PtrOf[Node](smr.InvalidRef()))
}

// Stack is a lock-free LIFO.
type Stack struct {
	d   *smr.Domain[Node]
	top smr.Atomic[Node]
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

// New builds an empty stack reclaimed through mk's domain.
func New(mk smr.Factory, opts ...Option) *Stack {
	c := config{threads: 64}
	for _, o := range opts {
		o(&c)
	}
	var arenaOpts []smr.ArenaOption[Node]
	if c.checked {
		arenaOpts = append(arenaOpts, smr.Checked[Node](true), smr.WithPoison(PoisonNode))
	}
	return &Stack{d: smr.NewWith[Node](mk, smr.Config{MaxThreads: c.threads, Slots: Slots}, arenaOpts...)}
}

// Domain exposes the scheme-level backend for generic drivers.
func (s *Stack) Domain() smr.Backend { return s.d.Backend() }

// Arena exposes the node arena.
func (s *Stack) Arena() *smr.Arena[Node] { return s.d.Arena() }

// Register opens a session on the stack's domain.
func (s *Stack) Register() *smr.Guard { return s.d.Register() }

// Acquire returns a pooled session on the stack's domain.
func (s *Stack) Acquire() *smr.Guard { return s.d.Acquire() }

// Push adds v on top. Lock-free.
func (s *Stack) Push(g *smr.Guard, v uint64) {
	ref, n := s.d.Alloc(g)
	n.Val = v
	for {
		top := s.top.Peek()
		n.Next.Store(top)
		s.d.Publish(ref.Ref()) // birth stamp immediately before publication
		schedtest.Point(schedtest.PointCAS)
		if s.top.CompareAndSwap(top, ref) {
			return
		}
	}
}

// Pop removes and returns the top value; ok is false on empty.
func (s *Stack) Pop(g *smr.Guard) (v uint64, ok bool) {
	g.BeginOp()
	var victim smr.Ptr[Node]
	for {
		top := s.top.Load(g, 0)
		if top.IsNil() {
			g.EndOp()
			return 0, false
		}
		n := s.d.Deref(g, top)
		next := n.Next.Peek()
		val := n.Val // protected: safe even if the CAS below fails
		schedtest.Point(schedtest.PointCAS)
		if s.top.CompareAndSwap(top, next) {
			v, ok = val, true
			victim = top
			break
		}
	}
	g.EndOp()
	g.Retire(victim.Ref())
	return v, ok
}

// Len counts elements; quiescent use only.
func (s *Stack) Len() int {
	n := 0
	for p := s.top.Peek(); !p.IsNil(); p = s.d.DerefQuiescent(p).Next.Peek() {
		n++
	}
	return n
}

// Drain tears the stack down at quiescence.
func (s *Stack) Drain() {
	p := s.top.Peek()
	s.top.Store(smr.Ptr[Node]{})
	for !p.IsNil() {
		next := s.d.DerefQuiescent(p).Next.Peek()
		s.d.Drop(p.Ref())
		p = next
	}
	s.d.Drain()
}
