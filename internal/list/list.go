// Package list implements the Maged-Harris lock-free linked-list set
// (T. Harris 2001, as refined by M. M. Michael 2002 for compatibility with
// pointer-based reclamation) — the data structure the Hazard Eras paper uses
// for its entire evaluation (§4). It is written once against the public smr
// API, so the identical code runs under HE, HP, EBR, URCU and IBR,
// mirroring the paper's shared-code methodology — and doubles as the
// library's own proof that the typed Guard surface expresses a real
// lock-free structure with no internal escape hatches.
//
// Exactly as the paper states, traversals use three protection slots
// ("on the Maged-Harris list, three hazard pointers are required to track
// traversals on the list and therefore, three hazard eras will be required
// as well", §2); the slots rotate roles (prev/curr/next) as the traversal
// advances, so no republication is needed on advance beyond the one
// protected Load per visited node.
//
// Deletion protocol (required by every pointer-based scheme, §2): a node is
// first logically deleted by setting the Harris mark bit on its next word,
// then physically unlinked by a CAS on its predecessor's next word, and only
// then retired. The mark lives in the same word as the successor ref, so a
// traversal holding &pred.next detects both unlink (ref change) and logical
// deletion of pred (mark change) with one comparison.
package list

import (
	"repro/internal/schedtest"
	"repro/smr"
)

// Protection slot count for list traversals (the paper's three hazard eras).
const Slots = 3

// Node is a list cell. Key is immutable after insertion; Next holds the
// typed successor link with the Harris mark bit. Val is an atomic value
// cell because in byte-value mode it names a size-class payload block that
// readers protect through it (word mode stores the value itself; it never
// changes after publication either way).
type Node struct {
	Key  uint64
	Val  smr.AtomicBytes
	Next smr.Atomic[Node]
}

// PoisonNode smashes a freed node so that any use-after-free traversal is
// conspicuous: the key becomes an improbable sentinel and Next becomes a ref
// into an unallocated slab, which the checked arena faults on dereference.
// Val gets the same unallocated ref so a stale payload read faults too.
func PoisonNode(n *Node) {
	n.Key = 0xDEADDEADDEADDEAD
	n.Val.Store(smr.BytesOf(smr.InvalidRef()))
	n.Next.Store(smr.PtrOf[Node](smr.InvalidRef()))
}

// Ops bundles a typed reclamation domain and implements the Harris-Michael
// set operations over any head cell. The single-head List below and the
// hash map's per-bucket lists both build on it.
//
// With ByteVals set, values live in the arena's size-class space instead of
// the node word: Node.Val holds the payload's ref, Insert synthesizes
// blocks of ValSizer(key) bytes, readers protect the payload before
// touching it, and the payload is retired through the same domain as its
// node (payload first, then the node that names it).
type Ops struct {
	D        *smr.Domain[Node]
	ByteVals bool
	ValSizer func(key uint64) int
}

// protection slot roles; they rotate as the traversal advances.
const (
	slotPrev = 0
	slotCurr = 1
	slotNext = 2
)

// find locates the first node with key >= key starting at head. On return,
// prev is the cell whose CAS links/unlinks at the position, curr the
// (unmarked) ptr read from prev, and next the raw successor word of curr.
// Marked nodes encountered on the way are helped off the list; their refs
// are appended to unlinked, returned as out, for the caller to retire after
// EndOp (deferring retirement keeps URCU's blocking synchronize out of the
// read-side critical section). The slice goes in and out by value, so a
// caller's stack buffer stays on the stack.
//
// Protection invariant at every point: prev's node (when not head) is
// protected at slot ip, curr at ic, next at in, and the word loaded from
// prev is compared for identity — any unlink OR logical deletion of prev's
// node changes that word and forces a restart.
func (o *Ops) find(head *smr.Atomic[Node], g *smr.Guard, key uint64, unlinked []smr.Ref) (found bool, prev *smr.Atomic[Node], curr, next smr.Ptr[Node], out []smr.Ref) {
	d := o.D
retry:
	for {
		ip, ic, in := slotPrev, slotCurr, slotNext
		prev = head
		curr = head.Load(g, ic)
		for {
			if curr.IsNil() {
				return false, prev, smr.Ptr[Node]{}, smr.Ptr[Node]{}, unlinked
			}
			// The head cell is never marked; interior prev cells were
			// validated unmarked when adopted, so curr is unmarked here.
			cn := d.Deref(g, curr)
			next = cn.Next.Load(g, in)
			if prev.Peek() != curr {
				continue retry
			}
			if next.Marked() {
				// curr is logically deleted: attempt the physical unlink.
				target := next.Unmarked()
				schedtest.Point(schedtest.PointCAS)
				if !prev.CompareAndSwap(curr, target) {
					continue retry
				}
				unlinked = append(unlinked, curr.Ref())
				// next (now curr) keeps its protection at in; recycle ic.
				ic, in = in, ic
				curr = target
				continue
			}
			if cn.Key >= key {
				return cn.Key == key, prev, curr, next, unlinked
			}
			prev = &cn.Next
			// Advance: curr becomes the prev node (protection ic -> role
			// ip), next becomes curr (in -> ic), and the stale ip slot is
			// recycled for the upcoming next.
			ip, ic, in = ic, in, ip
			curr = next
		}
	}
}

// retireAll retires every helped-off node after the read-side section ended.
func (o *Ops) retireAll(g *smr.Guard, unlinked []smr.Ref) {
	for _, ref := range unlinked {
		g.Retire(ref)
	}
}

// Insert adds key->val to the set rooted at head. It returns false (and
// leaves the set unchanged) when the key is already present. In byte-value
// mode the value is materialized as a ValSizer(key)-byte payload block.
func (o *Ops) Insert(head *smr.Atomic[Node], g *smr.Guard, key, val uint64) bool {
	return o.insert(head, g, key, val, nil)
}

// InsertBytes adds key->raw, storing a copy of raw as the payload block.
// Byte-value mode only; the arena faults otherwise.
func (o *Ops) InsertBytes(head *smr.Atomic[Node], g *smr.Guard, key uint64, raw []byte) bool {
	return o.insert(head, g, key, 0, raw)
}

// allocPayload materializes the value block for a new node: a copy of raw
// when given (InsertBytes), else ValSizer(key) bytes synthesized from val.
func (o *Ops) allocPayload(g *smr.Guard, key, val uint64, raw []byte) smr.Bytes {
	if raw != nil {
		return o.D.PutBytes(g, raw)
	}
	b, p := o.D.AllocBytes(g, smr.PayloadSize(o.ValSizer, key))
	smr.EncodePayload(p, val)
	return b
}

func (o *Ops) insert(head *smr.Atomic[Node], g *smr.Guard, key, val uint64, raw []byte) bool {
	d := o.D
	var buf [4]smr.Ref // helped-off refs; grows to the heap only past four
	unlinked := buf[:0]
	g.BeginOp()

	var newPtr smr.Ptr[Node]
	var pRef smr.Bytes
	var newNode *Node
	ok := false
	for {
		found, prev, curr, _, more := o.find(head, g, key, unlinked)
		unlinked = more
		if found {
			if !newPtr.IsNil() {
				// Never published: direct frees are safe. Payload first,
				// then the node that names it.
				if !pRef.IsNil() {
					d.Free(g, pRef.Ref())
				}
				d.Free(g, newPtr.Ref())
			}
			break
		}
		if newPtr.IsNil() {
			newPtr, newNode = d.Alloc(g)
			newNode.Key = key
			if o.ByteVals || raw != nil {
				pRef = o.allocPayload(g, key, val, raw)
				newNode.Val.Store(pRef)
			} else {
				newNode.Val.StoreWord(val)
			}
		}
		newNode.Next.Store(curr)
		// Stamp the birth eras on every attempt so they are current when
		// the node (and through it, the payload) becomes visible (paper §3:
		// "before the object is made visible to other threads").
		if !pRef.IsNil() {
			d.Publish(pRef.Ref())
		}
		d.Publish(newPtr.Ref())
		schedtest.Point(schedtest.PointCAS)
		if prev.CompareAndSwap(curr, newPtr) {
			ok = true
			break
		}
	}
	g.EndOp()
	o.retireAll(g, unlinked)
	return ok
}

// Remove deletes key from the set rooted at head, returning whether it was
// present. The deleting thread marks the node; whichever thread physically
// unlinks it (this one, or a helping traversal) retires it exactly once.
func (o *Ops) Remove(head *smr.Atomic[Node], g *smr.Guard, key uint64) bool {
	var buf [4]smr.Ref // helped-off refs; grows to the heap only past four
	unlinked := buf[:0]
	g.BeginOp()

	ok := false
	for {
		found, prev, curr, next, more := o.find(head, g, key, unlinked)
		unlinked = more
		if !found {
			break
		}
		cn := o.D.Deref(g, curr)
		// Logical deletion: mark the next word. Failure means a racing
		// insert/remove at this node: retry from find.
		schedtest.Point(schedtest.PointCAS)
		if !cn.Next.CompareAndSwap(next, next.WithMark()) {
			continue
		}
		ok = true
		if o.ByteVals {
			// Winning the mark CAS makes this thread the unique logical
			// deleter, so it uniquely owns the payload's retirement; the
			// node itself may be retired by whoever physically unlinks it.
			// Read the ref while curr is still protected, and retire the
			// payload ahead of the node (both land in unlinked, in order).
			unlinked = append(unlinked, cn.Val.Peek().Ref())
		}
		// Physical unlink; on failure a helping traversal will unlink (and
		// retire) the node instead.
		schedtest.Point(schedtest.PointCAS)
		if prev.CompareAndSwap(curr, next) {
			unlinked = append(unlinked, curr.Ref())
		}
		break
	}
	g.EndOp()
	o.retireAll(g, unlinked)
	return ok
}

// lookup is the pure-reader traversal shared by Contains and Get: marked
// nodes are skipped, never unlinked, so lookups perform no CAS and never
// retire — keeping the read side of the URCU variant non-blocking, as in
// the paper's benchmark ("the remove() method in the implementation using
// URCU is blocking ... while all other methods for all three
// implementations are non-blocking", §4).
//
// expect holds the word read from prev (possibly marked for interior
// cells — a marked next word is immutable, so validating against it is
// stable); curr is its unmarked form for dereference.
//
// In byte-value mode the value is a separate block that the remover retires
// the instant it wins the mark CAS, so it needs its own protection before
// the read: slot ip is stolen for it — prev's validation read has already
// happened and the traversal ends here. Publish, then re-check the node is
// still unmarked: unmarked after the publish means the mark (and therefore
// the payload's retirement) had not yet happened, so the retirer's scan is
// obligated to honor this hold.
// lookup read modes: membership only, decoded value word, payload copy.
const (
	readNone = iota
	readVal
	readCopy
)

func (o *Ops) lookup(head *smr.Atomic[Node], g *smr.Guard, key uint64, mode int) (val uint64, buf []byte, ok bool) {
	d := o.D
	g.BeginOp()
	defer g.EndOp()
retry:
	for {
		ip, ic, in := slotPrev, slotCurr, slotNext
		prev := head
		expect := head.Load(g, ic) // head cell is never marked
		for {
			curr := expect.Unmarked()
			if curr.IsNil() {
				return 0, nil, false
			}
			cn := d.Deref(g, curr)
			nextRaw := cn.Next.Load(g, in)
			if prev.Peek() != expect {
				continue retry
			}
			k := cn.Key
			if k > key {
				return 0, nil, false
			}
			if k == key && !nextRaw.Marked() {
				if mode == readNone {
					return 0, nil, true
				}
				if !o.ByteVals {
					return cn.Val.LoadWord(), nil, true
				}
				pRef := cn.Val.Load(g, ip)
				if cn.Next.Peek().Marked() {
					continue retry
				}
				p := d.DerefBytes(g, pRef)
				if mode == readCopy {
					buf = append([]byte(nil), p...)
				}
				return smr.DecodePayload(p), buf, true
			}
			// Advance (skipping marked nodes without helping); the three
			// slots rotate so prev's node stays protected for the next
			// validation read of its next word.
			prev = &cn.Next
			ip, ic, in = ic, in, ip
			expect = nextRaw
		}
	}
}

// Contains reports whether key is in the set rooted at head.
func (o *Ops) Contains(head *smr.Atomic[Node], g *smr.Guard, key uint64) bool {
	_, _, ok := o.lookup(head, g, key, readNone)
	return ok
}

// Get returns the value stored under key (in byte-value mode, the decoded
// value word of the payload block).
func (o *Ops) Get(head *smr.Atomic[Node], g *smr.Guard, key uint64) (uint64, bool) {
	v, _, ok := o.lookup(head, g, key, readVal)
	return v, ok
}

// GetBytes returns a copy of the payload block stored under key. Byte-value
// mode only; the copy is taken while the payload is still protected.
func (o *Ops) GetBytes(head *smr.Atomic[Node], g *smr.Guard, key uint64) ([]byte, bool) {
	_, buf, ok := o.lookup(head, g, key, readCopy)
	return buf, ok
}

// Len counts unmarked nodes; quiescent use only (tests, reporting).
func (o *Ops) Len(head *smr.Atomic[Node]) int {
	n := 0
	for p := head.Peek(); !p.IsNil(); {
		node := o.D.DerefQuiescent(p)
		raw := node.Next.Peek()
		if !raw.Marked() {
			n++
		}
		p = raw.Unmarked()
	}
	return n
}

// DrainList frees every node still linked from head; quiescent teardown.
// A marked-but-still-linked node keeps its node ownership here, but its
// payload was already retired by whoever won the mark CAS (and will be
// freed by the domain's Drain) — freeing it again would double-free.
func (o *Ops) DrainList(head *smr.Atomic[Node]) {
	d := o.D
	p := head.Peek().Unmarked()
	head.Store(smr.Ptr[Node]{})
	for !p.IsNil() {
		n := d.DerefQuiescent(p)
		raw := n.Next.Peek()
		if o.ByteVals && !raw.Marked() {
			if pb := n.Val.Peek(); !pb.IsNil() {
				d.Drop(pb.Ref())
			}
		}
		d.Drop(p.Ref())
		p = raw.Unmarked()
	}
}

// List is the single-head Harris-Michael set.
type List struct {
	ops  Ops
	head smr.Atomic[Node]
}

// Option configures a List.
type Option func(*config)

type config struct {
	checked  bool
	threads  int
	ins      *smr.Instrument
	byteVals bool
	valSizer func(key uint64) int
}

// WithChecked enables the checked (generation-validated, poisoned) arena.
func WithChecked(on bool) Option { return func(c *config) { c.checked = on } }

// WithMaxThreads sets the domain's initial session capacity (default 64);
// the registry grows past it on demand.
func WithMaxThreads(n int) Option { return func(c *config) { c.threads = n } }

// WithInstrument attaches reader-side op counting to the domain.
func WithInstrument(ins *smr.Instrument) Option { return func(c *config) { c.ins = ins } }

// WithByteValues stores values as variable-size payload blocks in the
// arena's size-class space instead of inline uint64 words. sizer maps a
// key to its payload size (nil, or anything below smr.MinPayload, means
// smr.MinPayload). Insert synthesizes the block from the value;
// InsertBytes/GetBytes expose the raw []byte surface.
func WithByteValues(sizer func(key uint64) int) Option {
	return func(c *config) { c.byteVals = true; c.valSizer = sizer }
}

// New builds an empty list whose nodes are reclaimed through the domain
// produced by mk — e.g. smr.HE.Factory(), or a bench.Scheme's Make.
func New(mk smr.Factory, opts ...Option) *List {
	c := config{threads: 64}
	for _, o := range opts {
		o(&c)
	}
	var arenaOpts []smr.ArenaOption[Node]
	if c.checked {
		arenaOpts = append(arenaOpts, smr.Checked[Node](true), smr.WithPoison(PoisonNode))
	}
	if c.byteVals {
		arenaOpts = append(arenaOpts, smr.WithByteValues[Node]())
	}
	d := smr.NewWith[Node](mk, smr.Config{MaxThreads: c.threads, Slots: Slots, Instrument: c.ins}, arenaOpts...)
	return &List{ops: Ops{D: d, ByteVals: c.byteVals, ValSizer: c.valSizer}}
}

// SMR exposes the typed reclamation domain (sessions, stats, teardown).
func (l *List) SMR() *smr.Domain[Node] { return l.ops.D }

// Domain exposes the scheme-level backend for generic drivers.
func (l *List) Domain() smr.Backend { return l.ops.D.Backend() }

// Arena exposes the node arena (stats, fault counters).
func (l *List) Arena() *smr.Arena[Node] { return l.ops.D.Arena() }

// Register opens a session on the list's domain.
func (l *List) Register() *smr.Guard { return l.ops.D.Register() }

// Acquire returns a pooled session on the list's domain.
func (l *List) Acquire() *smr.Guard { return l.ops.D.Acquire() }

// Insert adds key->val; false if already present.
func (l *List) Insert(g *smr.Guard, key, val uint64) bool {
	return l.ops.Insert(&l.head, g, key, val)
}

// Remove deletes key; false if absent.
func (l *List) Remove(g *smr.Guard, key uint64) bool { return l.ops.Remove(&l.head, g, key) }

// Contains reports membership of key.
func (l *List) Contains(g *smr.Guard, key uint64) bool { return l.ops.Contains(&l.head, g, key) }

// Get returns the value stored under key.
func (l *List) Get(g *smr.Guard, key uint64) (uint64, bool) { return l.ops.Get(&l.head, g, key) }

// InsertBytes adds key->raw (byte-value mode only); false if present.
func (l *List) InsertBytes(g *smr.Guard, key uint64, raw []byte) bool {
	return l.ops.InsertBytes(&l.head, g, key, raw)
}

// GetBytes returns a copy of key's payload block (byte-value mode only).
func (l *List) GetBytes(g *smr.Guard, key uint64) ([]byte, bool) {
	return l.ops.GetBytes(&l.head, g, key)
}

// Len counts elements; quiescent use only.
func (l *List) Len() int { return l.ops.Len(&l.head) }

// Pin parks the session inside a read-side critical section: the operation
// is opened and the first node protected, but EndOp is never called. This
// is the paper's "sleepy reader" (Appendix A) — the adversary for every
// reclamation scheme. Call Unpin to resume.
func (l *List) Pin(g *smr.Guard) {
	g.BeginOp()
	l.head.Load(g, slotCurr)
}

// Unpin ends a Pin'd critical section.
func (l *List) Unpin(g *smr.Guard) { g.EndOp() }

// Drain tears the structure down, freeing linked nodes and pending retirees.
func (l *List) Drain() {
	l.ops.DrainList(&l.head)
	l.ops.D.Drain()
}
