// Package bst implements an external (leaf-oriented) PATRICIA binary tree
// whose lookups protect every node on the root-to-leaf path — the workload
// the Hazard Eras paper's §3.4 uses to motivate the min/max-era
// optimization: "when doing traversals on binary trees ... protecting all
// the nodes from the root to the leaf" makes the number of hazard pointers
// large and HP "reduce[s] throughput considerably", while HE can publish
// only the lowest and highest era.
//
// Concurrency model: readers (Contains/Get) are lock-free and fully
// protected through the reclamation domain; writers (Insert/Remove) are
// serialized by a mutex and retire replaced nodes through the domain. This
// is the classic RCU-style single-writer/multi-reader tree (as used for
// kernel trees) and it deliberately isolates what the §3.4 ablation is
// about: *reader-side* protection cost on deep paths. A fully non-blocking
// writer protocol (Ellen et al. 2010) would change writer scalability but
// not the reader-side protection traffic being measured; DESIGN.md records
// the substitution. Like internal/list, the tree is written entirely
// against the public smr API; writers walk with Atomic.Peek and
// Domain.DerefQuiescent, because the writer mutex serializes every retirer.
// They take it through schedtest.Lock, so a writer waiting on it under a
// deterministic schedule hands the token on instead of blocking.
//
// Reader validation protocol per descent step (same anchor-re-validation
// argument as the Michael-Scott queue): protect the child read from
// parent.Child[b], then re-check that the edge which led to parent is
// unchanged; any unlink of parent in the window forces a restart from the
// root. An unchanged edge proves parent reachable only if the node holding
// that edge is itself still linked, and an unlinked node's edges are never
// rewritten. So Remove sets the mark bit on both child edges of the node it
// unlinks before the unlink store, and the reader treats a marked edge —
// the child it just read or the anchor — as changed. Only unlinked nodes
// carry marks, so writers, which start from the root, never see one. This
// is what pointer-based schemes (HP) need: a protection is valid only if
// its target was reachable when the protection was published, and a
// reader whose anchors lie inside already-unlinked nodes would otherwise
// pass re-validation. Era schemes need no more than the era they already
// published on the path.
package bst

import (
	"math/bits"
	"sync"

	"repro/internal/schedtest"
	"repro/smr"
)

// MaxDepth bounds a root-to-leaf path: 64 key bits plus the root edge.
const MaxDepth = 65

// Slots is the protection-slot count a domain needs for tree traversals.
const Slots = MaxDepth + 1

// Node kinds.
const (
	kindInternal = 0
	kindLeaf     = 1
)

// Node is a tree cell: a leaf carries Key/Val; an internal routes on bit
// index Bit (LSB-first) and always has two non-nil children. Val is an
// atomic value cell because in byte-value mode it names a size-class
// payload block that readers protect through it.
type Node struct {
	Kind  uint64
	Bit   uint64 // internal: the key bit this node routes on
	Key   uint64 // leaf: full key
	Val   smr.AtomicBytes
	Child [2]smr.Atomic[Node]
}

// PoisonNode smashes a freed node for use-after-free visibility.
func PoisonNode(n *Node) {
	n.Key = 0xDEADDEADDEADDEAD
	n.Kind = 0xDEAD
	n.Val.Store(smr.BytesOf(smr.InvalidRef()))
	n.Child[0].Store(smr.PtrOf[Node](smr.InvalidRef()))
	n.Child[1].Store(smr.PtrOf[Node](smr.InvalidRef()))
}

// Tree is the concurrent PATRICIA set.
type Tree struct {
	d    *smr.Domain[Node]
	root smr.Atomic[Node]
	mu   sync.Mutex // serializes writers only; readers never take it

	byteVals bool
	valSizer func(key uint64) int
}

// Option configures a Tree.
type Option func(*config)

type config struct {
	checked  bool
	threads  int
	byteVals bool
	valSizer func(key uint64) int
}

// WithChecked enables the checked (generation-validated, poisoned) arena.
func WithChecked(on bool) Option { return func(c *config) { c.checked = on } }

// WithMaxThreads sets the domain's initial session capacity (default 64);
// the registry grows past it on demand.
func WithMaxThreads(n int) Option { return func(c *config) { c.threads = n } }

// WithByteValues stores leaf values as variable-size payload blocks in the
// arena's size-class space (see list.WithByteValues); sizer maps a key to
// its payload size.
func WithByteValues(sizer func(key uint64) int) Option {
	return func(c *config) { c.byteVals = true; c.valSizer = sizer }
}

// New builds an empty tree reclaimed through mk's domain. The domain is
// configured with Slots protection indices — one per path level — which is
// precisely the configuration §3.4 calls impractically expensive for HP.
func New(mk smr.Factory, opts ...Option) *Tree {
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
	d := smr.NewWith[Node](mk, smr.Config{MaxThreads: c.threads, Slots: Slots}, arenaOpts...)
	return &Tree{d: d, byteVals: c.byteVals, valSizer: c.valSizer}
}

// Domain exposes the scheme-level backend for generic drivers.
func (t *Tree) Domain() smr.Backend { return t.d.Backend() }

// Arena exposes the node arena.
func (t *Tree) Arena() *smr.Arena[Node] { return t.d.Arena() }

// Register opens a session on the tree's domain.
func (t *Tree) Register() *smr.Guard { return t.d.Register() }

// Acquire returns a pooled session on the tree's domain.
func (t *Tree) Acquire() *smr.Guard { return t.d.Acquire() }

func bit(key uint64, i uint64) int { return int(key >> i & 1) }

// Contains reports membership of key.
func (t *Tree) Contains(g *smr.Guard, key uint64) bool {
	_, _, ok := t.get(g, key, readNone)
	return ok
}

// Get returns the value stored under key (in byte-value mode, the decoded
// value word of the payload block). Lock-free; protects the whole
// root-to-leaf path, one slot per level.
func (t *Tree) Get(g *smr.Guard, key uint64) (uint64, bool) {
	v, _, ok := t.get(g, key, readVal)
	return v, ok
}

// GetBytes returns a copy of key's payload block (byte-value mode only);
// the copy is taken while the payload is still protected.
func (t *Tree) GetBytes(g *smr.Guard, key uint64) ([]byte, bool) {
	_, buf, ok := t.get(g, key, readCopy)
	return buf, ok
}

// get read modes: membership only, decoded value word, payload copy.
const (
	readNone = iota
	readVal
	readCopy
)

func (t *Tree) get(g *smr.Guard, key uint64, mode int) (val uint64, buf []byte, ok bool) {
	d := t.d
	g.BeginOp()
	defer g.EndOp()
retry:
	for {
		edge := &t.root
		slot := 0
		cur := edge.Load(g, slot)
		if cur.IsNil() {
			return 0, nil, false
		}
		for {
			n := d.Deref(g, cur)
			if n.Kind == kindLeaf {
				if n.Key != key {
					return 0, nil, false
				}
				if mode == readNone {
					return 0, nil, true
				}
				if !t.byteVals {
					return n.Val.LoadWord(), nil, true
				}
				// Byte mode: the payload is a separate block that Remove
				// retires, so it needs its own protection. Publish at
				// slot+1 (never used by the path itself: a leaf sits at
				// slot <= MaxDepth-1, and Slots = MaxDepth+1), then
				// re-validate the edge that led to the leaf. Unchanged and
				// unmarked, it shows the leaf still linked after the
				// publish, so the publish preceded the unlink and therefore
				// the payload's retirement, and the retirer's scan must
				// honor this hold.
				schedtest.Point(schedtest.PointCAS)
				pRef := n.Val.Load(g, slot+1)
				if edge.Peek() != cur {
					continue retry
				}
				p := d.DerefBytes(g, pRef)
				if mode == readCopy {
					buf = append([]byte(nil), p...)
				}
				return smr.DecodePayload(p), buf, true
			}
			childEdge := &n.Child[bit(key, n.Bit)]
			slot++
			schedtest.Point(schedtest.PointCAS)
			child := childEdge.Load(g, slot)
			// Anchor re-validation: if cur was unlinked, its own edges are
			// marked (child) or the edge that led to it changed or was
			// marked, and the protection on child may be stale.
			if child.Marked() || edge.Peek() != cur {
				continue retry
			}
			edge = childEdge
			cur = child
		}
	}
}

// Insert adds key->val; false if already present. Writer-serialized. In
// byte-value mode the value is materialized as a valSizer(key)-byte
// payload block.
func (t *Tree) Insert(g *smr.Guard, key, val uint64) bool {
	return t.insert(g, key, val, nil)
}

// InsertBytes adds key->raw, storing a copy of raw as the payload block.
// Byte-value mode only; the arena faults otherwise.
func (t *Tree) InsertBytes(g *smr.Guard, key uint64, raw []byte) bool {
	return t.insert(g, key, 0, raw)
}

func (t *Tree) insert(g *smr.Guard, key, val uint64, raw []byte) bool {
	d := t.d
	schedtest.Lock(&t.mu)
	defer t.mu.Unlock()

	if t.root.Peek().IsNil() {
		t.root.Store(t.newLeaf(g, key, val, raw))
		return true
	}
	// Phase 1: descend to the nearest leaf to find the first differing bit.
	p := t.root.Peek()
	for {
		n := d.DerefQuiescent(p)
		if n.Kind == kindLeaf {
			if n.Key == key {
				return false
			}
			break
		}
		p = n.Child[bit(key, n.Bit)].Peek()
	}
	diff := uint64(bits.TrailingZeros64(d.DerefQuiescent(p).Key ^ key))

	// Phase 2: descend again to the edge where the new internal belongs —
	// the first edge whose target is a leaf or routes on a bit above diff.
	edge := &t.root
	for {
		cur := edge.Peek()
		n := d.DerefQuiescent(cur)
		if n.Kind == kindLeaf || n.Bit > diff {
			leaf := t.newLeaf(g, key, val, raw)
			inner, in := d.Alloc(g)
			in.Kind = kindInternal
			in.Bit = diff
			in.Child[bit(key, diff)].Store(leaf)
			in.Child[1-bit(key, diff)].Store(cur)
			d.Publish(inner.Ref())
			edge.Store(inner)
			return true
		}
		edge = &n.Child[bit(key, n.Bit)]
	}
}

func (t *Tree) newLeaf(g *smr.Guard, key, val uint64, raw []byte) smr.Ptr[Node] {
	d := t.d
	leaf, n := d.Alloc(g)
	n.Kind = kindLeaf
	n.Key = key
	if t.byteVals || raw != nil {
		var b smr.Bytes
		if raw != nil {
			b = d.PutBytes(g, raw)
		} else {
			var p []byte
			b, p = d.AllocBytes(g, smr.PayloadSize(t.valSizer, key))
			smr.EncodePayload(p, val)
		}
		n.Val.Store(b)
		d.Publish(b.Ref()) // payload birth stamp before it becomes reachable
	} else {
		n.Val.StoreWord(val)
	}
	d.Publish(leaf.Ref())
	return leaf
}

// Remove deletes key; false if absent. Writer-serialized. The removed leaf
// and its parent internal node are retired through the domain — these are
// the retirements that exercise HP's O(threads x Slots) scan versus
// HE-minmax's O(threads x 2).
func (t *Tree) Remove(g *smr.Guard, key uint64) bool {
	d := t.d
	schedtest.Lock(&t.mu)
	defer t.mu.Unlock()

	cur := t.root.Peek()
	if cur.IsNil() {
		return false
	}
	var gpEdge *smr.Atomic[Node]
	edge := &t.root
	var parent smr.Ptr[Node]
	for {
		n := d.DerefQuiescent(cur)
		if n.Kind == kindLeaf {
			if n.Key != key {
				return false
			}
			break
		}
		gpEdge = edge
		parent = cur
		edge = &n.Child[bit(key, n.Bit)]
		cur = edge.Peek()
	}
	if parent.IsNil() {
		// The leaf is the root.
		t.root.Store(smr.Ptr[Node]{})
		t.retireLeaf(g, cur)
		return true
	}
	pn := d.DerefQuiescent(parent)
	b := bit(key, pn.Bit)
	sibling := pn.Child[1-b].Peek()
	schedtest.Point(schedtest.PointCAS)
	// Mark parent's edges before the unlink, so a reader whose anchor is
	// one of them sees it changed (see the package comment).
	pn.Child[b].Store(cur.WithMark())
	pn.Child[1-b].Store(sibling.WithMark())
	gpEdge.Store(sibling) // unlink parent (and with it the leaf)
	g.Retire(parent.Ref())
	t.retireLeaf(g, cur)
	return true
}

// retireLeaf retires a leaf through the domain; in byte-value mode its
// payload goes first — the ref must be read while the leaf is still
// allocated, and retiring it ahead keeps the free order payload-then-node.
func (t *Tree) retireLeaf(g *smr.Guard, leaf smr.Ptr[Node]) {
	if t.byteVals {
		g.Retire(t.d.DerefQuiescent(leaf).Val.Peek().Ref())
	}
	g.Retire(leaf.Ref())
}

// Len counts leaves; quiescent use only.
func (t *Tree) Len() int { return t.countLeaves(t.root.Peek()) }

func (t *Tree) countLeaves(p smr.Ptr[Node]) int {
	if p.IsNil() {
		return 0
	}
	n := t.d.DerefQuiescent(p)
	if n.Kind == kindLeaf {
		return 1
	}
	return t.countLeaves(n.Child[0].Peek()) + t.countLeaves(n.Child[1].Peek())
}

// Depth returns the maximum root-to-leaf path length; quiescent use only.
func (t *Tree) Depth() int { return t.depth(t.root.Peek()) }

func (t *Tree) depth(p smr.Ptr[Node]) int {
	if p.IsNil() {
		return 0
	}
	n := t.d.DerefQuiescent(p)
	if n.Kind == kindLeaf {
		return 1
	}
	return 1 + max(t.depth(n.Child[0].Peek()), t.depth(n.Child[1].Peek()))
}

// Drain tears the tree down at quiescence.
func (t *Tree) Drain() {
	t.drain(t.root.Peek())
	t.root.Store(smr.Ptr[Node]{})
	t.d.Drain()
}

func (t *Tree) drain(p smr.Ptr[Node]) {
	if p.IsNil() {
		return
	}
	n := t.d.DerefQuiescent(p)
	if n.Kind == kindInternal {
		t.drain(n.Child[0].Peek())
		t.drain(n.Child[1].Peek())
	} else if t.byteVals {
		if b := n.Val.Peek(); !b.IsNil() {
			t.d.Drop(b.Ref())
		}
	}
	t.d.Drop(p.Ref())
}
