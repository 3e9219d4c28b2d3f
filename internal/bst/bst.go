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
// the substitution.
//
// Reader validation protocol per descent step (same anchor-re-validation
// argument as the Michael-Scott queue): protect the child read from
// parent.Child[b], then re-check that the edge which led to parent is
// unchanged; any unlink of parent in the window forces a restart from the
// root.
package bst

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/payload"
	"repro/internal/reclaim"
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
// index Bit (LSB-first) and always has two non-nil children. Val is atomic
// because in byte-value mode it names a size-class payload block that
// readers protect through it.
type Node struct {
	Kind  uint64
	Bit   uint64 // internal: the key bit this node routes on
	Key   uint64 // leaf: full key
	Val   atomic.Uint64
	Child [2]atomic.Uint64
}

// PoisonNode smashes a freed node for use-after-free visibility.
func PoisonNode(n *Node) {
	n.Key = 0xDEADDEADDEADDEAD
	n.Kind = 0xDEAD
	bad := uint64(mem.MakeRef(mem.MaxIndex, 0))
	n.Val.Store(bad)
	n.Child[0].Store(bad)
	n.Child[1].Store(bad)
}

// Tree is the concurrent PATRICIA set.
type Tree struct {
	arena *mem.Arena[Node]
	dom   reclaim.Domain
	root  atomic.Uint64
	mu    sync.Mutex // serializes writers only; readers never take it

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

// DomainFactory mirrors list.DomainFactory.
type DomainFactory = smr.Factory

// New builds an empty tree reclaimed through mk's domain. The domain is
// configured with Slots protection indices — one per path level — which is
// precisely the configuration §3.4 calls impractically expensive for HP.
func New(mk DomainFactory, opts ...Option) *Tree {
	c := config{threads: 64}
	for _, o := range opts {
		o(&c)
	}
	arenaOpts := []mem.Option[Node]{mem.WithShards[Node](c.threads)}
	if c.checked {
		arenaOpts = append(arenaOpts, mem.Checked[Node](true), mem.WithPoison[Node](PoisonNode))
	}
	if c.byteVals {
		arenaOpts = append(arenaOpts, mem.WithByteClasses[Node]())
	}
	arena := mem.NewArena[Node](arenaOpts...)
	dom := mk(arena, reclaim.Config{MaxThreads: c.threads, Slots: Slots})
	return &Tree{arena: arena, dom: dom, byteVals: c.byteVals, valSizer: c.valSizer}
}

// Domain exposes the reclamation domain.
func (t *Tree) Domain() reclaim.Domain { return t.dom }

// Arena exposes the node arena.
func (t *Tree) Arena() *mem.Arena[Node] { return t.arena }

// Register opens a session on the tree's domain.
func (t *Tree) Register() *smr.Guard { return smr.Adopt(t.dom.Register()) }

// Acquire returns a pooled session on the tree's domain.
func (t *Tree) Acquire() *smr.Guard { return smr.Adopt(t.dom.Acquire()) }

func bit(key uint64, i uint64) int { return int(key >> i & 1) }

// Contains reports membership of key.
func (t *Tree) Contains(g *smr.Guard, key uint64) bool {
	_, _, ok := t.get(g.Handle(), key, readNone)
	return ok
}

// Get returns the value stored under key (in byte-value mode, the decoded
// value word of the payload block). Lock-free; protects the whole
// root-to-leaf path, one slot per level.
func (t *Tree) Get(g *smr.Guard, key uint64) (uint64, bool) {
	v, _, ok := t.get(g.Handle(), key, readVal)
	return v, ok
}

// GetBytes returns a copy of key's payload block (byte-value mode only);
// the copy is taken while the payload is still protected.
func (t *Tree) GetBytes(g *smr.Guard, key uint64) ([]byte, bool) {
	_, buf, ok := t.get(g.Handle(), key, readCopy)
	return buf, ok
}

// get read modes: membership only, decoded value word, payload copy.
const (
	readNone = iota
	readVal
	readCopy
)

func (t *Tree) get(h *reclaim.Handle, key uint64, mode int) (val uint64, buf []byte, ok bool) {
	arena := t.arena
	h.BeginOp()
	defer h.EndOp()
retry:
	for {
		edge := &t.root
		slot := 0
		cur := h.Protect(slot, edge)
		if cur.IsNil() {
			return 0, nil, false
		}
		// Anchor of cur's parent: the edge Remove's unlink rewrites when it
		// retires cur (gpEdge in Remove). Tracked for the payload read.
		var prevEdge *atomic.Uint64
		var prevExpect uint64
		for {
			n := arena.Get(cur)
			if n.Kind == kindLeaf {
				if n.Key != key {
					return 0, nil, false
				}
				if mode == readNone {
					return 0, nil, true
				}
				if !t.byteVals {
					return n.Val.Load(), nil, true
				}
				// Byte mode: the payload is a separate block that Remove
				// retires, so it needs its own protection. Publish at
				// slot+1 (never used by the path itself: a leaf sits at
				// slot <= MaxDepth-1, and Slots = MaxDepth+1), then
				// re-validate the edge the unlink rewrites — the one that
				// led to the leaf's PARENT, or the leaf's own edge when the
				// leaf is the root. If the anchor still holds, the publish
				// preceded the unlink and therefore the payload's
				// retirement, so the retirer's scan must honor this hold.
				pRef := h.Protect(slot+1, &n.Val)
				if prevEdge != nil && prevEdge.Load() != prevExpect {
					continue retry
				}
				if edge.Load() != uint64(cur) {
					continue retry
				}
				p := arena.Bytes(pRef)
				if mode == readCopy {
					buf = append([]byte(nil), p...)
				}
				return payload.Decode(p), buf, true
			}
			childEdge := &n.Child[bit(key, n.Bit)]
			slot++
			child := h.Protect(slot, childEdge)
			// Anchor re-validation: if cur was unlinked, the edge that led
			// to it changed and the protection on child may be stale.
			if edge.Load() != uint64(cur) {
				continue retry
			}
			prevEdge, prevExpect = edge, uint64(cur)
			edge = childEdge
			cur = child
		}
	}
}

// Insert adds key->val; false if already present. Writer-serialized. In
// byte-value mode the value is materialized as a valSizer(key)-byte
// payload block.
func (t *Tree) Insert(g *smr.Guard, key, val uint64) bool {
	return t.insert(g.Handle(), key, val, nil)
}

// InsertBytes adds key->raw, storing a copy of raw as the payload block.
// Byte-value mode only; the arena faults otherwise.
func (t *Tree) InsertBytes(g *smr.Guard, key uint64, raw []byte) bool {
	return t.insert(g.Handle(), key, 0, raw)
}

func (t *Tree) insert(h *reclaim.Handle, key, val uint64, raw []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()

	if mem.Ref(t.root.Load()).IsNil() {
		leaf := t.newLeaf(h, key, val, raw)
		t.root.Store(uint64(leaf))
		return true
	}
	// Phase 1: descend to the nearest leaf to find the first differing bit.
	ref := mem.Ref(t.root.Load())
	for {
		n := t.arena.Get(ref)
		if n.Kind == kindLeaf {
			if n.Key == key {
				return false
			}
			break
		}
		ref = mem.Ref(n.Child[bit(key, n.Bit)].Load())
	}
	diff := uint64(bits.TrailingZeros64(t.arena.Get(ref).Key ^ key))

	// Phase 2: descend again to the edge where the new internal belongs —
	// the first edge whose target is a leaf or routes on a bit above diff.
	edge := &t.root
	for {
		cur := mem.Ref(edge.Load())
		n := t.arena.Get(cur)
		if n.Kind == kindLeaf || n.Bit > diff {
			leaf := t.newLeaf(h, key, val, raw)
			inner, in := t.arena.AllocAt(h.ID())
			in.Kind = kindInternal
			in.Bit = diff
			in.Child[bit(key, diff)].Store(uint64(leaf))
			in.Child[1-bit(key, diff)].Store(uint64(cur))
			t.dom.OnAlloc(inner)
			edge.Store(uint64(inner))
			return true
		}
		edge = &n.Child[bit(key, n.Bit)]
	}
}

func (t *Tree) newLeaf(h *reclaim.Handle, key, val uint64, raw []byte) mem.Ref {
	ref, n := t.arena.AllocAt(h.ID())
	n.Kind = kindLeaf
	n.Key = key
	if t.byteVals || raw != nil {
		var pRef mem.Ref
		if raw != nil {
			pRef = t.arena.PutBytesAt(h.ID(), raw)
		} else {
			var p []byte
			pRef, p = t.arena.AllocBytesAt(h.ID(), payload.SizeFor(t.valSizer, key))
			payload.Encode(p, val)
		}
		n.Val.Store(uint64(pRef))
		t.dom.OnAlloc(pRef) // payload birth stamp before it becomes reachable
	} else {
		n.Val.Store(val)
	}
	t.dom.OnAlloc(ref)
	return ref
}

// Remove deletes key; false if absent. Writer-serialized. The removed leaf
// and its parent internal node are retired through the domain — these are
// the retirements that exercise HP's O(threads x Slots) scan versus
// HE-minmax's O(threads x 2).
func (t *Tree) Remove(g *smr.Guard, key uint64) bool {
	h := g.Handle()
	t.mu.Lock()
	defer t.mu.Unlock()

	rootRef := mem.Ref(t.root.Load())
	if rootRef.IsNil() {
		return false
	}
	var gpEdge *atomic.Uint64
	edge := &t.root
	cur := rootRef
	var parent mem.Ref
	for {
		n := t.arena.Get(cur)
		if n.Kind == kindLeaf {
			if n.Key != key {
				return false
			}
			break
		}
		gpEdge = edge
		parent = cur
		edge = &n.Child[bit(key, n.Bit)]
		cur = mem.Ref(edge.Load())
	}
	if parent.IsNil() {
		// The leaf is the root.
		t.root.Store(0)
		t.retireLeaf(h, cur)
		return true
	}
	pn := t.arena.Get(parent)
	b := bit(key, pn.Bit)
	sibling := pn.Child[1-b].Load()
	gpEdge.Store(sibling) // unlink parent (and with it the leaf)
	h.Retire(parent)
	t.retireLeaf(h, cur)
	return true
}

// retireLeaf retires a leaf through the domain; in byte-value mode its
// payload goes first — the ref must be read while the leaf is still
// allocated, and retiring it ahead keeps the free order payload-then-node.
func (t *Tree) retireLeaf(h *reclaim.Handle, leaf mem.Ref) {
	if t.byteVals {
		h.Retire(mem.Ref(t.arena.Get(leaf).Val.Load()))
	}
	h.Retire(leaf)
}

// Len counts leaves; quiescent use only.
func (t *Tree) Len() int {
	return t.countLeaves(mem.Ref(t.root.Load()))
}

func (t *Tree) countLeaves(ref mem.Ref) int {
	if ref.IsNil() {
		return 0
	}
	n := t.arena.Get(ref)
	if n.Kind == kindLeaf {
		return 1
	}
	return t.countLeaves(mem.Ref(n.Child[0].Load())) + t.countLeaves(mem.Ref(n.Child[1].Load()))
}

// Depth returns the maximum root-to-leaf path length; quiescent use only.
func (t *Tree) Depth() int {
	return t.depth(mem.Ref(t.root.Load()))
}

func (t *Tree) depth(ref mem.Ref) int {
	if ref.IsNil() {
		return 0
	}
	n := t.arena.Get(ref)
	if n.Kind == kindLeaf {
		return 1
	}
	l, r := t.depth(mem.Ref(n.Child[0].Load())), t.depth(mem.Ref(n.Child[1].Load()))
	return 1 + max(l, r)
}

// Drain tears the tree down at quiescence.
func (t *Tree) Drain() {
	t.drain(mem.Ref(t.root.Load()))
	t.root.Store(0)
	t.dom.Drain()
}

func (t *Tree) drain(ref mem.Ref) {
	if ref.IsNil() {
		return
	}
	n := t.arena.Get(ref)
	if n.Kind == kindInternal {
		t.drain(mem.Ref(n.Child[0].Load()))
		t.drain(mem.Ref(n.Child[1].Load()))
	} else if t.byteVals {
		if pRef := mem.Ref(n.Val.Load()); !pRef.IsNil() {
			t.arena.Free(pRef)
		}
	}
	t.arena.Free(ref)
}
