// Package queue implements the Michael-Scott lock-free FIFO queue (PODC
// 1996) with pointer-based reclamation as in M. M. Michael's Hazard
// Pointers paper — one of the workloads the Hazard Eras paper's
// introduction motivates (its authors' own wait-free queue, reference [26],
// is built on exactly this reclamation API). Like internal/list, it is
// written entirely against the public smr API.
//
// Two protection slots are used: one for the head/tail anchor node, one for
// its successor. The dequeued dummy node is retired with its next pointer
// intact; this is safe because every traversal re-validates the anchor
// after protecting the successor — if the anchor was dequeued in the
// window, the re-validation fails and the operation retries (see the
// comment in Dequeue).
package queue

import (
	"repro/internal/schedtest"
	"repro/smr"
)

// Slots is the number of protection indices the queue needs.
const Slots = 2

// Node is a queue cell.
type Node struct {
	Val  uint64
	Next smr.Atomic[Node]
}

// PoisonNode smashes a freed node for use-after-free visibility.
func PoisonNode(n *Node) {
	n.Val = 0xDEADDEADDEADDEAD
	n.Next.Store(smr.PtrOf[Node](smr.InvalidRef()))
}

// Queue is a lock-free multi-producer multi-consumer FIFO.
type Queue struct {
	d    *smr.Domain[Node]
	head smr.Atomic[Node]
	tail smr.Atomic[Node]
}

// Option configures a Queue.
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

// New builds an empty queue (one dummy node) reclaimed through mk's domain.
func New(mk DomainFactory, opts ...Option) *Queue {
	c := config{threads: 64}
	for _, o := range opts {
		o(&c)
	}
	var arenaOpts []smr.ArenaOption[Node]
	if c.checked {
		arenaOpts = append(arenaOpts, smr.Checked[Node](true), smr.WithPoison(PoisonNode))
	}
	d := smr.NewWith[Node](mk, smr.Config{MaxThreads: c.threads, Slots: Slots}, arenaOpts...)
	q := &Queue{d: d}
	g := d.Acquire()
	dummy, _ := d.Alloc(g)
	d.Publish(dummy.Ref())
	q.head.Store(dummy)
	q.tail.Store(dummy)
	g.Release()
	return q
}

// SMR exposes the typed reclamation domain (sessions, stats, teardown).
func (q *Queue) SMR() *smr.Domain[Node] { return q.d }

// Domain exposes the scheme-level backend for generic drivers.
func (q *Queue) Domain() smr.Backend { return q.d.Backend() }

// Arena exposes the node arena.
func (q *Queue) Arena() *smr.Arena[Node] { return q.d.Arena() }

// Register opens a session on the queue's domain.
func (q *Queue) Register() *smr.Guard { return q.d.Register() }

// Acquire returns a pooled session on the queue's domain.
func (q *Queue) Acquire() *smr.Guard { return q.d.Acquire() }

// Enqueue appends v. Lock-free.
func (q *Queue) Enqueue(g *smr.Guard, v uint64) {
	d := q.d
	ref, n := d.Alloc(g) // private until the publish below
	n.Val = v
	n.Next.Store(smr.Ptr[Node]{})

	g.BeginOp()
	for {
		tailPtr := q.tail.Load(g, 0)
		tn := d.Deref(g, tailPtr)
		next := tn.Next.Peek()
		if q.tail.Peek() != tailPtr {
			continue
		}
		if !next.IsNil() {
			// Tail is lagging: help advance it.
			schedtest.Point(schedtest.PointCAS)
			q.tail.CompareAndSwap(tailPtr, next)
			continue
		}
		// Stamp the birth era immediately before publication (paper §3).
		d.Publish(ref.Ref())
		schedtest.Point(schedtest.PointCAS)
		if tn.Next.CompareAndSwap(smr.Ptr[Node]{}, ref) {
			schedtest.Point(schedtest.PointCAS)
			q.tail.CompareAndSwap(tailPtr, ref)
			break
		}
	}
	g.EndOp()
}

// Dequeue removes and returns the oldest value; ok is false on empty.
func (q *Queue) Dequeue(g *smr.Guard) (v uint64, ok bool) {
	d := q.d
	g.BeginOp()
	var victim smr.Ptr[Node]
	for {
		headPtr := q.head.Load(g, 0)
		tailRaw := q.tail.Peek()
		hn := d.Deref(g, headPtr)
		next := hn.Next.Load(g, 1)
		// Re-validate the anchor AFTER protecting the successor: if head
		// still equals headPtr here, the dummy had not been dequeued at
		// this (seq-cst) point, hence its successor was still reachable —
		// so the era/pointer published by the Load above falls inside the
		// successor's lifetime and the dereference below is safe.
		if q.head.Peek() != headPtr {
			continue
		}
		if next.IsNil() {
			g.EndOp()
			return 0, false
		}
		if headPtr == tailRaw {
			// Tail is lagging behind a half-finished enqueue: help.
			schedtest.Point(schedtest.PointCAS)
			q.tail.CompareAndSwap(tailRaw, next)
			continue
		}
		nn := d.Deref(g, next)
		val := nn.Val // read before the swing; next is protected
		schedtest.Point(schedtest.PointCAS)
		if q.head.CompareAndSwap(headPtr, next) {
			v, ok = val, true
			victim = headPtr
			break
		}
	}
	g.EndOp()
	g.Retire(victim.Ref())
	return v, ok
}

// Len counts queued values; quiescent use only.
func (q *Queue) Len() int {
	n := 0
	p := q.head.Peek()
	for {
		next := q.d.DerefQuiescent(p).Next.Peek()
		if next.IsNil() {
			return n
		}
		n++
		p = next
	}
}

// Drain tears the queue down (including the dummy) at quiescence.
func (q *Queue) Drain() {
	p := q.head.Peek()
	q.head.Store(smr.Ptr[Node]{})
	q.tail.Store(smr.Ptr[Node]{})
	for !p.IsNil() {
		next := q.d.DerefQuiescent(p).Next.Peek()
		q.d.Drop(p.Ref())
		p = next
	}
	q.d.Drain()
}
