// Package wfqueue implements the Kogan-Petrank wait-free MPMC queue
// (A. Kogan and E. Petrank, "Wait-Free Queues With Multiple Enqueuers and
// Dequeuers", PPoPP 2011 — the paper's reference [17]) on top of this
// repository's reclamation domains.
//
// The Hazard Eras paper motivates exactly this combination: §3.2 notes that
// "similarly to HP, it is possible to use HE in a wait-free algorithm,
// maintaining its wait-free progress", citing the authors' wait-free queue
// [26]; and §C observes that "there is little benefit in designing a
// wait-free queue and then use a quiescence-based memory reclamation ...
// knowing that such a technique is blocking for reclaimers, i.e. for
// dequeuing operations". This package is the demonstration: a wait-free
// queue whose nodes AND operation descriptors are reclaimed through any
// reclaim.Domain, with every method wait-free when the domain's operations
// are (HE/HP; running it over EBR or URCU degrades the progress exactly as
// the paper predicts, which the tests exploit).
//
// It is the one structure not written against the public smr API alone: a
// session here spans two reclamation domains (nodes and descriptors), and
// an smr.Guard carries exactly one domain's session. So the queue keeps its
// own Handle over the internal reclaim and mem packages, and takes only its
// constructor's smr.Factory from smr.
//
// Algorithm recap (faithful to the PPoPP'11 pseudocode): each session
// announces its operation in its announcement cell as an immutable
// descriptor carrying a phase number; every operation first helps all
// pending operations with a phase no larger than its own, so each operation
// completes within a bounded number of steps regardless of scheduling.
// Enqueues append their pre-created node at the tail (the linking CAS can
// be performed by any helper, at most once — the tail is only advanced
// after the owner's descriptor is completed). Dequeues claim the current
// sentinel by CASing its DeqTid and the head is advanced by whoever
// finishes the claim.
//
// Where the PPoPP'11 original uses a fixed state[MAX_THREADS] array, the
// announcement cells here live in a dynamically grown chain of cell blocks,
// mirroring the reclamation registry: Register never fails, and help loops
// walk whatever prefix of the chain is published. A helper that reaches a
// cell through a node's EnqTid always finds it — the block holding the cell
// is published (seq-cst) before any descriptor is announced in it, which in
// turn precedes the node link the helper followed.
//
// Reclamation additions relative to the GC-reliant original:
//
//   - descriptors live in their own arena and are retired by whichever
//     session's CAS replaces them in an announcement cell — with the retire
//     buffered until that session's operation ends, because quiescence-based
//     domains (URCU) treat Retire as a quiescent state for the caller and an
//     inline mid-operation retire would unprotect the rest of the helping
//     loop (see Handle.deferred);
//   - the dequeued sentinel is retired by the owning dequeuer after it has
//     read the value;
//   - the dequeued VALUE is snapshotted into the completing descriptor by
//     the session that finishes the dequeue. The descriptor-completion CAS
//     has a unique winner, and the value is loaded from the successor only
//     under a head re-validation that proves the successor has not itself
//     been consumed yet — so the owner reads its value from its own
//     completed descriptor and never dereferences the successor node after
//     the operation has completed (the successor may be reclaimed by then).
package wfqueue

import (
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
	"repro/smr"
)

// Protection slot counts for the two domains.
const (
	// NodeSlots: 0 anchor (head/tail), 1 successor, 2 finish-anchor,
	// 3 finish-successor.
	NodeSlots = 4
	// DescSlots: 0 descriptor in help loops, 1 descriptor in finishers.
	DescSlots = 2
)

const noDeqTid = -1

// Node is a queue cell. Val is immutable after the node is published.
type Node struct {
	Val    uint64
	EnqTid int64 // announcement index of the enqueuing session; immutable
	DeqTid atomic.Int64
	Next   atomic.Uint64
}

// Desc is an operation descriptor. All fields are immutable once the
// descriptor is published in an announcement cell; progress is made by
// replacing the whole descriptor with CAS.
type Desc struct {
	Phase   uint64
	Pending bool
	Enqueue bool
	Node    mem.Ref // enqueue: node to link; dequeue: claimed sentinel (nil = empty/candidate unset)
	// Val is the dequeued value, snapshotted by the finishing helper into
	// the completed descriptor of a dequeue.
	Val uint64
}

// PoisonNode smashes a freed node.
func PoisonNode(n *Node) {
	n.Val = 0xDEADDEADDEADDEAD
	n.Next.Store(uint64(mem.MakeRef(mem.MaxIndex, 0)))
}

// PoisonDesc smashes a freed descriptor.
func PoisonDesc(d *Desc) {
	d.Phase = 0xDEADDEADDEADDEAD
	d.Node = mem.MakeRef(mem.MaxIndex, 0)
}

// Handle is a registered wait-free-queue session: one session in each of
// the two reclamation domains, an announcement cell, and the owner-only
// deferred-retire buffer. Obtain one with Queue.Register (or the pooled
// Queue.Acquire) and pass it to Enqueue/Dequeue.
type Handle struct {
	q    *Queue
	n    *reclaim.Handle // node-domain session
	d    *reclaim.Handle // descriptor-domain session
	idx  int             // announcement index (stable for the handle's lifetime)
	cell *atomic.Uint64  // cached announcement cell (= q.stateCell(idx))

	// deferred buffers descriptor retires issued inside this session's
	// BeginOp..EndOp section. Retiring mid-section is unsound under
	// quiescence-based domains: URCU's Retire marks the CALLER quiescent,
	// so an inline retire deep in the helping loop would strip the reader's
	// own protection for the rest of the operation (other threads'
	// Synchronize then stops waiting for it, and a descriptor it is still
	// dereferencing can be freed and recycled under it). The buffer is
	// flushed immediately after EndOp; only the owning session touches it.
	deferred []mem.Ref
}

// Release parks the live session in the queue's pool for Acquire to reuse.
func (h *Handle) Release() { h.q.Release(h) }

// Unregister permanently closes the session.
func (h *Handle) Unregister() { h.q.Unregister(h) }

// cellBlock is one link of the announcement-cell chain. The cells slice is
// immutable after publication; every cell is pre-filled with a completed
// pseudo-descriptor before the block is published, so help loops always
// read a valid descriptor.
type cellBlock struct {
	base  int
	cells []atomic.Uint64
	next  atomic.Pointer[cellBlock]
}

// Queue is the wait-free MPMC FIFO.
type Queue struct {
	nodes *mem.Arena[Node]
	descs *mem.Arena[Desc]
	ndom  reclaim.Domain
	ddom  reclaim.Domain

	head atomic.Uint64
	tail atomic.Uint64

	// stateHead is the announcement-cell chain (the PPoPP'11 state array,
	// grown in published blocks like the reclamation registry).
	stateHead *cellBlock

	mu        sync.Mutex
	stateTail *cellBlock
	tailUsed  int
	total     int
	freeIdx   []int
	pool      []*Handle
}

// Option configures a Queue.
type Option func(*config)

type config struct {
	checked bool
	threads int
}

// WithChecked enables checked (generation-validated, poisoned) arenas.
func WithChecked(on bool) Option { return func(c *config) { c.checked = on } }

// WithMaxThreads sets the initial session capacity (default 16; the help
// loop scans all announcement cells, so keep it close to the real worker
// count). More sessions than this grow the cell chain — Register never
// fails.
func WithMaxThreads(n int) Option { return func(c *config) { c.threads = n } }

// New builds an empty wait-free queue whose nodes and descriptors are
// reclaimed through domains produced by mk.
func New(mk smr.Factory, opts ...Option) *Queue {
	c := config{threads: 16}
	for _, o := range opts {
		o(&c)
	}
	nOpts := []mem.Option[Node]{mem.WithShards[Node](c.threads)}
	dOpts := []mem.Option[Desc]{mem.WithShards[Desc](c.threads)}
	if c.checked {
		nOpts = append(nOpts, mem.Checked[Node](true), mem.WithPoison[Node](PoisonNode))
		dOpts = append(dOpts, mem.Checked[Desc](true), mem.WithPoison[Desc](PoisonDesc))
	}
	q := &Queue{
		nodes: mem.NewArena[Node](nOpts...),
		descs: mem.NewArena[Desc](dOpts...),
	}
	q.ndom = mk(q.nodes, reclaim.Config{MaxThreads: c.threads, Slots: NodeSlots})
	q.ddom = mk(q.descs, reclaim.Config{MaxThreads: c.threads, Slots: DescSlots})

	sentinel, n := q.nodes.Alloc()
	n.DeqTid.Store(noDeqTid)
	q.ndom.OnAlloc(sentinel)
	q.head.Store(uint64(sentinel))
	q.tail.Store(uint64(sentinel))

	q.stateHead = q.newCellBlock(0, c.threads)
	q.stateTail = q.stateHead
	q.total = c.threads
	return q
}

// newCellBlock builds an unpublished cell block covering announcement
// indices [base, base+n), every cell holding a fresh completed
// pseudo-descriptor so the help loop has something valid to read. The
// descriptors come from the arena's shared path (Alloc), never a magazine:
// growth runs on whichever goroutine is registering.
func (q *Queue) newCellBlock(base, n int) *cellBlock {
	blk := &cellBlock{base: base, cells: make([]atomic.Uint64, n)}
	for i := range blk.cells {
		ref, d := q.descs.Alloc()
		d.Phase = 0
		d.Pending = false
		d.Enqueue = true
		d.Node = mem.NilRef
		d.Val = 0
		q.ddom.OnAlloc(ref)
		blk.cells[i].Store(uint64(ref))
	}
	return blk
}

// stateCell returns the announcement cell for index i, walking the block
// chain. It returns nil only for an index no block covers — impossible for
// an index obtained from a published node or descriptor, because the block
// is published before any session announces through it.
func (q *Queue) stateCell(i int) *atomic.Uint64 {
	for blk := q.stateHead; blk != nil; blk = blk.next.Load() {
		if i < blk.base+len(blk.cells) {
			return &blk.cells[i-blk.base]
		}
	}
	return nil
}

func (q *Queue) newNode(h *Handle, val uint64, enqTid int64) mem.Ref {
	ref, n := q.nodes.AllocAt(h.n.ID())
	n.Val = val
	n.EnqTid = enqTid
	n.DeqTid.Store(noDeqTid)
	n.Next.Store(0)
	q.ndom.OnAlloc(ref)
	return ref
}

func (q *Queue) newDesc(h *Handle, phase uint64, pending, enqueue bool, node mem.Ref, val uint64) mem.Ref {
	ref, d := q.descs.AllocAt(h.d.ID())
	d.Phase = phase
	d.Pending = pending
	d.Enqueue = enqueue
	d.Node = node
	d.Val = val
	q.ddom.OnAlloc(ref)
	return ref
}

// Register opens a session valid for both internal domains, growing the
// announcement-cell chain when all indices are taken. It never fails.
func (q *Queue) Register() *Handle {
	h := &Handle{q: q, n: q.ndom.Register(), d: q.ddom.Register()}
	q.mu.Lock()
	if n := len(q.freeIdx); n > 0 {
		h.idx = q.freeIdx[n-1]
		q.freeIdx = q.freeIdx[:n-1]
	} else {
		if q.tailUsed == len(q.stateTail.cells) {
			grown := q.newCellBlock(q.total, q.total)
			q.stateTail.next.Store(grown) // publication point
			q.stateTail = grown
			q.total += len(grown.cells)
			q.tailUsed = 0
		}
		h.idx = q.stateTail.base + q.tailUsed
		q.tailUsed++
	}
	q.mu.Unlock()
	h.cell = q.stateCell(h.idx)
	return h
}

// Acquire returns a pooled session parked by Release, or registers a new
// one.
func (q *Queue) Acquire() *Handle {
	q.mu.Lock()
	if n := len(q.pool); n > 0 {
		h := q.pool[n-1]
		q.pool = q.pool[:n-1]
		q.mu.Unlock()
		return h
	}
	q.mu.Unlock()
	return q.Register()
}

// Release parks h in the queue's pool for Acquire to reuse. The
// announcement cell keeps its completed descriptor.
func (q *Queue) Release(h *Handle) {
	h.n.Release()
	h.d.Release()
	q.mu.Lock()
	q.pool = append(q.pool, h)
	q.mu.Unlock()
}

// Unregister permanently closes h. Its announcement index is recycled for a
// future Register; the completed descriptor left in the cell stays valid
// for concurrent help loops.
func (q *Queue) Unregister(h *Handle) {
	h.n.Unregister()
	h.d.Unregister()
	q.mu.Lock()
	q.freeIdx = append(q.freeIdx, h.idx)
	q.mu.Unlock()
}

// NodeDomain exposes the node-reclamation domain (stats).
func (q *Queue) NodeDomain() reclaim.Domain { return q.ndom }

// DescDomain exposes the descriptor-reclamation domain (stats).
func (q *Queue) DescDomain() reclaim.Domain { return q.ddom }

// NodeArena exposes the node arena (stats, fault counters).
func (q *Queue) NodeArena() *mem.Arena[Node] { return q.nodes }

// DescArena exposes the descriptor arena.
func (q *Queue) DescArena() *mem.Arena[Desc] { return q.descs }

// maxPhase scans every announced descriptor for the largest phase.
func (q *Queue) maxPhase(h *Handle) uint64 {
	var maxP uint64
	for blk := q.stateHead; blk != nil; blk = blk.next.Load() {
		for i := range blk.cells {
			dref := h.d.Protect(0, &blk.cells[i])
			if p := q.descs.Get(dref).Phase; p > maxP {
				maxP = p
			}
		}
	}
	return maxP
}

// isStillPending re-reads announcement cell's descriptor and reports
// whether an operation with phase <= ph is still in flight there.
func (q *Queue) isStillPending(h *Handle, cell *atomic.Uint64, ph uint64) bool {
	dref := h.d.Protect(0, cell)
	d := q.descs.Get(dref)
	return d.Pending && d.Phase <= ph
}

// replaceDesc installs newRef in cell if it still holds oldRef, deferring
// the retire of the replaced descriptor to the end of the caller's
// operation (see Handle.deferred) and directly freeing the never-published
// newRef on failure. Returns success.
func (q *Queue) replaceDesc(h *Handle, cell *atomic.Uint64, oldRef, newRef mem.Ref) bool {
	schedtest.Point(schedtest.PointCAS)
	if cell.CompareAndSwap(uint64(oldRef), uint64(newRef)) {
		h.deferred = append(h.deferred, oldRef)
		return true
	}
	q.descs.Free(newRef)
	return false
}

// endOp closes both domains' read-side sections and only then retires the
// descriptors replaced during the operation. Every BeginOp pair in this
// file must exit through endOp.
func (q *Queue) endOp(h *Handle) {
	q.ndom.EndOp(h.n)
	q.ddom.EndOp(h.d)
	for _, ref := range h.deferred {
		h.d.Retire(ref)
	}
	h.deferred = h.deferred[:0]
}

// help completes every announced operation whose phase is <= ph. A cell
// block published after the walk started is skipped this round — the same
// window as an announcement stored just behind the walk cursor in the
// fixed-array original; every later operation's walk includes it.
func (q *Queue) help(h *Handle, ph uint64) {
	for blk := q.stateHead; blk != nil; blk = blk.next.Load() {
		for i := range blk.cells {
			cell := &blk.cells[i]
			dref := h.d.Protect(0, cell)
			d := q.descs.Get(dref)
			if !d.Pending || d.Phase > ph {
				continue
			}
			if d.Enqueue {
				q.helpEnq(h, cell, d.Phase)
			} else {
				q.helpDeq(h, cell, blk.base+i, d.Phase)
			}
		}
	}
}

// helpEnq pushes the announced node onto the tail. The linking CAS can only
// succeed while the operation is pending (the tail is advanced strictly
// after the completing descriptor CAS), so the node is linked at most once.
func (q *Queue) helpEnq(h *Handle, cell *atomic.Uint64, ph uint64) {
	for q.isStillPending(h, cell, ph) {
		lastRef := h.n.Protect(0, &q.tail)
		last := q.nodes.Get(lastRef)
		next := mem.Ref(last.Next.Load())
		if uint64(lastRef) != q.tail.Load() {
			continue
		}
		if !next.IsNil() {
			// Tail is lagging: finish the enqueue in progress.
			q.helpFinishEnq(h)
			continue
		}
		if !q.isStillPending(h, cell, ph) {
			return
		}
		dref := h.d.Protect(0, cell)
		d := q.descs.Get(dref)
		if !d.Pending || d.Phase > ph || !d.Enqueue {
			return
		}
		schedtest.Point(schedtest.PointCAS)
		if last.Next.CompareAndSwap(0, uint64(d.Node)) {
			q.helpFinishEnq(h)
			return
		}
	}
}

// helpFinishEnq completes a half-done enqueue: mark the owner's descriptor
// non-pending, THEN advance the tail (the order is what guarantees a node
// is never linked twice).
func (q *Queue) helpFinishEnq(h *Handle) {
	lastRef := h.n.Protect(2, &q.tail)
	last := q.nodes.Get(lastRef)
	nextRef := h.n.Protect(3, &last.Next)
	if uint64(lastRef) != q.tail.Load() {
		return
	}
	if nextRef.IsNil() {
		return
	}
	next := q.nodes.Get(nextRef)
	cell := q.stateCell(int(next.EnqTid))
	if cell == nil {
		return
	}
	dref := h.d.Protect(1, cell)
	d := q.descs.Get(dref)
	if uint64(lastRef) == q.tail.Load() && d.Node == nextRef && d.Pending {
		newRef := q.newDesc(h, d.Phase, false, true, d.Node, 0)
		q.replaceDesc(h, cell, dref, newRef)
	}
	schedtest.Point(schedtest.PointCAS)
	q.tail.CompareAndSwap(uint64(lastRef), uint64(nextRef))
}

// helpDeq completes the announced dequeue: record the current sentinel as
// the candidate in the owner's descriptor, claim it by CASing its DeqTid,
// then finish.
func (q *Queue) helpDeq(h *Handle, cell *atomic.Uint64, idx int, ph uint64) {
	for q.isStillPending(h, cell, ph) {
		firstRef := h.n.Protect(0, &q.head)
		lastRaw := q.tail.Load()
		first := q.nodes.Get(firstRef)
		nextRef := h.n.Protect(1, &first.Next)
		if uint64(firstRef) != q.head.Load() {
			continue
		}
		if uint64(firstRef) == lastRaw {
			if nextRef.IsNil() {
				// Queue empty: complete the op with a nil node.
				dref := h.d.Protect(0, cell)
				d := q.descs.Get(dref)
				if lastRaw != q.tail.Load() {
					continue
				}
				if d.Pending && d.Phase <= ph && !d.Enqueue {
					newRef := q.newDesc(h, d.Phase, false, false, mem.NilRef, 0)
					q.replaceDesc(h, cell, dref, newRef)
				}
				continue
			}
			// Tail is lagging behind a half-finished enqueue.
			q.helpFinishEnq(h)
			continue
		}
		dref := h.d.Protect(0, cell)
		d := q.descs.Get(dref)
		if !d.Pending || d.Phase > ph || d.Enqueue {
			return
		}
		if d.Node != firstRef {
			// Candidate stale (or unset): point it at the current sentinel.
			newRef := q.newDesc(h, d.Phase, true, false, firstRef, 0)
			if !q.replaceDesc(h, cell, dref, newRef) {
				continue
			}
		}
		schedtest.Point(schedtest.PointCAS)
		first.DeqTid.CompareAndSwap(noDeqTid, int64(idx))
		q.helpFinishDeq(h)
	}
}

// helpFinishDeq completes a claimed dequeue: snapshot the dequeued value
// out of the successor, mark the owner's descriptor done (carrying the
// value), and advance the head.
//
// The value snapshot is protected against staleness by the head
// re-validation AFTER the load: the successor's Val is immutable while the
// successor is still in the queue, and it can only be consumed after the
// head has advanced past firstRef — so if head still equals firstRef after
// the load, the loaded value is the correct one. Every finisher therefore
// computes the same value, and the unique winner of the descriptor CAS
// publishes it.
func (q *Queue) helpFinishDeq(h *Handle) {
	firstRef := h.n.Protect(2, &q.head)
	first := q.nodes.Get(firstRef)
	nextRef := h.n.Protect(3, &first.Next)
	if uint64(firstRef) != q.head.Load() {
		return
	}
	i := int(first.DeqTid.Load())
	if i == noDeqTid {
		return // nobody has claimed the sentinel yet
	}
	if nextRef.IsNil() {
		return // inconsistent snapshot; a claimed sentinel has a successor
	}
	// The head re-validation above makes the successor dereference safe
	// (same argument as the Michael-Scott queue in internal/queue).
	val := q.nodes.Get(nextRef).Val

	cell := q.stateCell(i)
	if cell == nil {
		return
	}
	dref := h.d.Protect(1, cell)
	d := q.descs.Get(dref)
	if uint64(firstRef) != q.head.Load() {
		return
	}
	if d.Node == firstRef && d.Pending {
		newRef := q.newDesc(h, d.Phase, false, false, firstRef, val)
		q.replaceDesc(h, cell, dref, newRef)
	}
	schedtest.Point(schedtest.PointCAS)
	q.head.CompareAndSwap(uint64(firstRef), uint64(nextRef))
}

// Announce publishes an enqueue of v WITHOUT helping it to completion —
// the "stalled announcer" scenario: any other session's subsequent
// operation is obligated to complete this one (wait-free helping). Enqueue
// is Announce plus the helping; tests and examples use Announce alone to
// demonstrate that obligation.
func (q *Queue) Announce(h *Handle, v uint64) uint64 {
	q.ndom.BeginOp(h.n)
	q.ddom.BeginOp(h.d)
	phase := q.maxPhase(h) + 1
	node := q.newNode(h, v, int64(h.idx))
	desc := q.newDesc(h, phase, true, true, node, 0)
	old := mem.Ref(h.cell.Swap(uint64(desc)))
	h.deferred = append(h.deferred, old)
	q.endOp(h)
	return phase
}

// Enqueue appends v. Wait-free: announce, help everyone up to our phase,
// finish.
func (q *Queue) Enqueue(h *Handle, v uint64) {
	phase := q.Announce(h, v)

	q.ndom.BeginOp(h.n)
	q.ddom.BeginOp(h.d)
	q.help(h, phase)
	q.helpFinishEnq(h)
	q.endOp(h)
}

// Dequeue removes and returns the oldest value; ok is false on empty.
// Wait-free.
func (q *Queue) Dequeue(h *Handle) (v uint64, ok bool) {
	q.ndom.BeginOp(h.n)
	q.ddom.BeginOp(h.d)

	phase := q.maxPhase(h) + 1
	desc := q.newDesc(h, phase, true, false, mem.NilRef, 0)
	old := mem.Ref(h.cell.Swap(uint64(desc)))
	h.deferred = append(h.deferred, old)

	q.help(h, phase)
	q.helpFinishDeq(h)

	// Our descriptor is now complete; it names the sentinel we own.
	dref := h.d.Protect(0, h.cell)
	d := q.descs.Get(dref)
	node := d.Node
	if node.IsNil() {
		q.endOp(h)
		return 0, false
	}
	// The finisher snapshotted the dequeued value into our completed
	// descriptor; the successor node may already be reclaimed by now, but
	// we never touch it.
	v = d.Val

	q.endOp(h)
	// We own the old sentinel: retire it. (Our completed descriptor still
	// names it, but Node of a non-pending descriptor is only dereferenced
	// by its owner, i.e. by this session's NEXT operation's Swap-retire.)
	h.n.Retire(node)
	return v, true
}

// Len counts queued values; quiescent use only.
func (q *Queue) Len() int {
	n := 0
	ref := mem.Ref(q.head.Load())
	for {
		next := mem.Ref(q.nodes.Get(ref).Next.Load())
		if next.IsNil() {
			return n
		}
		n++
		ref = next
	}
}

// Drain tears the queue down at quiescence.
func (q *Queue) Drain() {
	ref := mem.Ref(q.head.Load())
	q.head.Store(0)
	q.tail.Store(0)
	for !ref.IsNil() {
		next := mem.Ref(q.nodes.Get(ref).Next.Load())
		q.nodes.Free(ref)
		ref = next
	}
	for blk := q.stateHead; blk != nil; blk = blk.next.Load() {
		for i := range blk.cells {
			q.descs.Free(mem.Ref(blk.cells[i].Load()))
			blk.cells[i].Store(0)
		}
	}
	q.ndom.Drain()
	q.ddom.Drain()
}
