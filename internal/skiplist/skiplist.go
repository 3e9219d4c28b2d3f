// Package skiplist implements a concurrent skip list — the ordered-map
// workload of K. Fraser's "Practical lock-freedom" (the Hazard Eras paper's
// reference [10] and the origin of epoch-based reclamation), here used as a
// further client of the reclaim.Domain interface: multi-level traversals
// protect one node at a time with the same three rotating slots as the
// Harris-Michael list, plus ordered range scans that hold protections for
// the whole scan.
//
// Concurrency model (same as internal/bst, documented in DESIGN.md):
// readers (Get/Contains/Range) are lock-free and fully protected through
// the reclamation domain; writers (Insert/Remove) are serialized by a mutex
// and retire replaced nodes through the domain. Insert links bottom-up so a
// node appears atomically at level 0 (its linearization point); Remove
// unlinks top-down and retires only after the node is off every level, so
// the reader-side validation invariant holds: a node reachable from a
// validated edge has not been retired.
//
// Reader validation protocol per step: Remove first MARKS every level cell
// of the victim's tower (the Harris mark bit) and only then unlinks it, so
// any cell belonging to a deleted node is permanently marked before the
// node can be retired. A reader restarts whenever a protected load returns
// a marked ref — the same invalidation the Harris-Michael list relies on,
// generalized to towers — and additionally re-validates the incoming edge
// of the node it advances from.
package skiplist

import (
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/payload"
	"repro/internal/reclaim"
	"repro/smr"
)

// MaxLevel is the tallest tower; 16 levels cover ~2^16 expected elements at
// p = 1/2 and match typical skip list deployments.
const MaxLevel = 16

// Slots is the protection-slot count traversals need: three rotating slots
// (prev / curr / next), exactly as the Harris-Michael list.
const Slots = 3

// Node is a skip-list tower. Key, Val and Level are immutable after
// publication; Next[l] for l < Level are the per-level successor refs. Val
// is atomic because in byte-value mode it names a size-class payload block
// that readers protect through it.
type Node struct {
	Key   uint64
	Val   atomic.Uint64
	Level int
	Next  [MaxLevel]atomic.Uint64
}

// PoisonNode smashes a freed node.
func PoisonNode(n *Node) {
	n.Key = 0xDEADDEADDEADDEAD
	bad := uint64(mem.MakeRef(mem.MaxIndex, 0))
	n.Val.Store(bad)
	for l := range n.Next {
		n.Next[l].Store(bad)
	}
}

// DomainFactory mirrors list.DomainFactory.
type DomainFactory = smr.Factory

// SkipList is the concurrent ordered map.
type SkipList struct {
	arena *mem.Arena[Node]
	dom   reclaim.Domain
	// heads[l] is the static level-l list head (needs no protection).
	heads [MaxLevel]atomic.Uint64
	mu    sync.Mutex // serializes writers; readers never take it
	rng   uint64     // level generator state, guarded by mu
	size  int        // guarded by mu

	byteVals bool
	valSizer func(key uint64) int
}

// Option configures a SkipList.
type Option func(*config)

type config struct {
	checked  bool
	threads  int
	seed     uint64
	byteVals bool
	valSizer func(key uint64) int
}

// WithChecked enables the checked (generation-validated, poisoned) arena.
func WithChecked(on bool) Option { return func(c *config) { c.checked = on } }

// WithMaxThreads sets the domain's initial session capacity (default 64);
// the registry grows past it on demand.
func WithMaxThreads(n int) Option { return func(c *config) { c.threads = n } }

// WithSeed seeds the tower-height generator (default 1).
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithByteValues stores values as variable-size payload blocks in the
// arena's size-class space (see list.WithByteValues); sizer maps a key to
// its payload size.
func WithByteValues(sizer func(key uint64) int) Option {
	return func(c *config) { c.byteVals = true; c.valSizer = sizer }
}

// New builds an empty skip list reclaimed through mk's domain.
func New(mk DomainFactory, opts ...Option) *SkipList {
	c := config{threads: 64, seed: 1}
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
	return &SkipList{arena: arena, dom: dom, rng: c.seed | 1, byteVals: c.byteVals, valSizer: c.valSizer}
}

// Domain exposes the reclamation domain.
func (s *SkipList) Domain() reclaim.Domain { return s.dom }

// Arena exposes the node arena.
func (s *SkipList) Arena() *mem.Arena[Node] { return s.arena }

// Register opens a session on the skip list's domain.
func (s *SkipList) Register() *smr.Guard { return smr.Adopt(s.dom.Register()) }

// Acquire returns a pooled session on the skip list's domain.
func (s *SkipList) Acquire() *smr.Guard { return smr.Adopt(s.dom.Acquire()) }

// randomLevel draws a geometric(1/2) tower height in [1, MaxLevel].
// Called under mu.
func (s *SkipList) randomLevel() int {
	s.rng += 0x9E3779B97F4A7C15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	level := 1
	for z&1 == 1 && level < MaxLevel {
		level++
		z >>= 1
	}
	return level
}

// Get returns the value stored under key (in byte-value mode, the decoded
// value word of the payload block). Lock-free; the traversal protects
// prev/curr/next with three rotating slots and validates the incoming edge
// of prev after every successor protection.
func (s *SkipList) Get(g *smr.Guard, key uint64) (uint64, bool) {
	v, _, ok := s.get(g.Handle(), key, readVal)
	return v, ok
}

// GetBytes returns a copy of key's payload block (byte-value mode only);
// the copy is taken while the payload is still protected.
func (s *SkipList) GetBytes(g *smr.Guard, key uint64) ([]byte, bool) {
	_, buf, ok := s.get(g.Handle(), key, readCopy)
	return buf, ok
}

// get read modes: membership only, decoded value word, payload copy.
const (
	readNone = iota
	readVal
	readCopy
)

func (s *SkipList) get(h *reclaim.Handle, key uint64, mode int) (val uint64, buf []byte, ok bool) {
	arena := s.arena
	h.BeginOp()
	defer h.EndOp()
retry:
	for {
		sc, sn := 1, 2
		level := MaxLevel - 1
		var prev *Node           // owner of cell; nil while prev is the static head
		var pEdge *atomic.Uint64 // incoming edge of prev (nil for the head)
		var pExpect uint64
		cell := &s.heads[level]
		curr := h.Protect(sc, cell) // head cells are never marked
		for {
			// Advance horizontally while curr.Key < key.
			for !curr.IsNil() {
				cn := arena.Get(curr)
				if cn.Key >= key {
					break
				}
				next := h.Protect(sn, &cn.Next[level])
				// A marked load means curr's tower is being (or has been)
				// deleted: its cells will never change again, so only the
				// mark reveals the staleness.
				if next.Marked() {
					continue retry
				}
				// curr must still be linked where we found it, which also
				// proves cn.Next was current when next was protected.
				if cell.Load() != uint64(curr) {
					continue retry
				}
				pEdge, pExpect = cell, uint64(curr)
				prev = cn
				cell = &cn.Next[level]
				curr = next
				// Rotate: prev keeps curr's old slot; the stale third slot
				// (the former grandparent's) becomes the next protection
				// target. The grandparent therefore stays protected until
				// the next advance — long enough for the pEdge validation
				// that descents perform.
				sc, sn = sn, 3-sc-sn
			}
			if level == 0 {
				if curr.IsNil() {
					return 0, nil, false
				}
				cn := arena.Get(curr)
				if cn.Key != key {
					return 0, nil, false
				}
				if mode == readNone {
					return 0, nil, true
				}
				if !s.byteVals {
					return cn.Val.Load(), nil, true
				}
				// Byte mode: the payload is a separate block that Remove
				// retires, so it needs its own protection. Slot sn is dead
				// here (the traversal is over), so publish there, then
				// re-check the level-0 cell is still unmarked: unmarked
				// after the publish means the tower mark — which precedes
				// the payload's retirement — had not yet happened, so the
				// retirer's scan is obligated to honor this hold.
				pRef := h.Protect(sn, &cn.Val)
				if mem.Ref(cn.Next[0].Load()).Marked() {
					continue retry
				}
				p := arena.Bytes(pRef)
				if mode == readCopy {
					buf = append([]byte(nil), p...)
				}
				return payload.Decode(p), buf, true
			}
			// Descend at prev: same owner, one level down. prev stays
			// protected at its slot; its incoming edge is re-validated
			// after the fresh protection below.
			level--
			if prev == nil {
				cell = &s.heads[level]
			} else {
				cell = &prev.Next[level]
			}
			curr = h.Protect(sc, cell)
			if curr.Marked() {
				continue retry // prev's tower is being deleted
			}
			if pEdge != nil && pEdge.Load() != pExpect {
				continue retry
			}
		}
	}
}

// Contains reports membership of key.
func (s *SkipList) Contains(g *smr.Guard, key uint64) bool {
	_, _, ok := s.get(g.Handle(), key, readNone)
	return ok
}

// findPreds locates, for every level, the last node with key < key.
// Writer-only (called under mu): writers are the only retirers, so their
// plain traversals never see freed nodes.
func (s *SkipList) findPreds(key uint64) (preds [MaxLevel]*atomic.Uint64, found mem.Ref) {
	var prev *Node
	for level := MaxLevel - 1; level >= 0; level-- {
		var cell *atomic.Uint64
		if prev == nil {
			cell = &s.heads[level]
		} else {
			cell = &prev.Next[level]
		}
		for {
			curr := mem.Ref(cell.Load())
			if curr.IsNil() {
				break
			}
			cn := s.arena.Get(curr)
			if cn.Key >= key {
				if cn.Key == key && level == 0 {
					found = curr
				}
				break
			}
			prev = cn
			cell = &cn.Next[level]
		}
		preds[level] = cell
	}
	return preds, found
}

// Insert adds key->val; false if already present. Writer-serialized. The
// tower is linked bottom-up, so the node appears atomically at level 0 —
// its linearization point — and partially-linked upper levels are simply
// not yet taken by readers. In byte-value mode the value is materialized
// as a valSizer(key)-byte payload block.
func (s *SkipList) Insert(g *smr.Guard, key, val uint64) bool {
	return s.insert(g.Handle(), key, val, nil)
}

// InsertBytes adds key->raw, storing a copy of raw as the payload block.
// Byte-value mode only; the arena faults otherwise.
func (s *SkipList) InsertBytes(g *smr.Guard, key uint64, raw []byte) bool {
	return s.insert(g.Handle(), key, 0, raw)
}

func (s *SkipList) insert(h *reclaim.Handle, key, val uint64, raw []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	preds, found := s.findPreds(key)
	if !found.IsNil() {
		return false
	}
	level := s.randomLevel()
	ref, n := s.arena.AllocAt(h.ID())
	n.Key, n.Level = key, level
	var pRef mem.Ref
	if s.byteVals || raw != nil {
		if raw != nil {
			pRef = s.arena.PutBytesAt(h.ID(), raw)
		} else {
			var p []byte
			pRef, p = s.arena.AllocBytesAt(h.ID(), payload.SizeFor(s.valSizer, key))
			payload.Encode(p, val)
		}
		n.Val.Store(uint64(pRef))
	} else {
		n.Val.Store(val)
	}
	for l := 0; l < level; l++ {
		n.Next[l].Store(preds[l].Load())
	}
	// Birth stamps before the node (and through it, the payload) becomes
	// visible.
	if !pRef.IsNil() {
		s.dom.OnAlloc(pRef)
	}
	s.dom.OnAlloc(ref)
	for l := 0; l < level; l++ {
		preds[l].Store(uint64(ref))
	}
	s.size++
	return true
}

// Remove deletes key; false if absent. Writer-serialized. The tower is
// unlinked top-down — level 0 last, the linearization point — and the node
// is retired only once it is unreachable from every level, which is the
// precondition the reader-side validation relies on.
func (s *SkipList) Remove(g *smr.Guard, key uint64) bool {
	h := g.Handle()
	s.mu.Lock()
	defer s.mu.Unlock()
	preds, found := s.findPreds(key)
	if found.IsNil() {
		return false
	}
	n := s.arena.Get(found)
	// Phase 1: mark every level cell of the tower. From this point any
	// reader that loads through the dying node sees the mark and restarts.
	for l := n.Level - 1; l >= 0; l-- {
		n.Next[l].Store(uint64(mem.Ref(n.Next[l].Load()).WithMark()))
	}
	// Phase 2: unlink top-down; level 0 is the linearization point.
	for l := n.Level - 1; l >= 0; l-- {
		if mem.Ref(preds[l].Load()) == found {
			preds[l].Store(uint64(mem.Ref(n.Next[l].Load()).Unmarked()))
		}
	}
	// Payload before node: the ref must be read before the node can be
	// freed, and retiring it first keeps the free order payload-then-node.
	if s.byteVals {
		h.Retire(mem.Ref(n.Val.Load()))
	}
	h.Retire(found)
	s.size--
	return true
}

// Range calls fn(key, val) for every element with from <= key < to, in
// ascending order, under continuous protection. It returns the number of
// elements visited. fn must not call back into the skip list with the same
// session. The scan is lock-free; a concurrent unlink near the cursor restarts
// the scan from the current key (elements already reported are not
// repeated — the cursor key only moves forward).
func (s *SkipList) Range(g *smr.Guard, from, to uint64, fn func(key, val uint64) bool) int {
	h := g.Handle()
	arena := s.arena
	count := 0
	cursor := from
	for cursor < to {
		// Locate the first key >= cursor with a protected descent, then
		// walk level 0 until invalidated.
		h.BeginOp()
		visited, next, again := s.rangeSegment(h, cursor, to, fn, arena)
		h.EndOp()
		count += visited
		if !again {
			return count
		}
		cursor = next
	}
	return count
}

// rangeSegment scans level 0 from the first key >= cursor, reporting
// elements < to. It returns how many were reported, the key to resume from
// after an invalidation, and whether the scan must continue.
func (s *SkipList) rangeSegment(h *reclaim.Handle, cursor, to uint64, fn func(key, val uint64) bool, arena *mem.Arena[Node]) (int, uint64, bool) {
retry:
	for {
		// Protected descent to the first candidate at level 0 (same
		// protocol as Get, stopping at cursor).
		sc, sn := 1, 2
		level := MaxLevel - 1
		var prev *Node
		var pEdge *atomic.Uint64
		var pExpect uint64
		cell := &s.heads[level]
		curr := h.Protect(sc, cell)
		for {
			for !curr.IsNil() {
				cn := arena.Get(curr)
				if cn.Key >= cursor {
					break
				}
				next := h.Protect(sn, &cn.Next[level])
				if next.Marked() {
					continue retry
				}
				if cell.Load() != uint64(curr) {
					continue retry
				}
				pEdge, pExpect = cell, uint64(curr)
				prev = cn
				cell = &cn.Next[level]
				curr = next
				sc, sn = sn, 3-sc-sn
			}
			if level == 0 {
				break
			}
			level--
			if prev == nil {
				cell = &s.heads[level]
			} else {
				cell = &prev.Next[level]
			}
			curr = h.Protect(sc, cell)
			if curr.Marked() {
				continue retry
			}
			if pEdge != nil && pEdge.Load() != pExpect {
				continue retry
			}
		}
		// Walk level 0 reporting elements until to, an invalidation, or
		// the end of the list.
		count := 0
		for !curr.IsNil() {
			cn := arena.Get(curr)
			if cn.Key >= to {
				return count, to, false
			}
			val := uint64(0)
			if s.byteVals {
				// Protect the payload at sn — dead at this point; it is
				// re-targeted at cn.Next[0] right after the report. A mark
				// seen after the publish means the payload may already be
				// retired: resume at cn.Key itself (not reported yet).
				pRef := h.Protect(sn, &cn.Val)
				if mem.Ref(cn.Next[0].Load()).Marked() {
					return count, cn.Key, true
				}
				val = payload.Decode(arena.Bytes(pRef))
			} else {
				val = cn.Val.Load()
			}
			if !fn(cn.Key, val) {
				return count, to, false
			}
			count++
			resume := cn.Key + 1
			next := h.Protect(sn, &cn.Next[0])
			if next.Marked() || cell.Load() != uint64(curr) {
				// Invalidated mid-scan: resume past the last reported key.
				return count, resume, true
			}
			prev = cn
			cell = &cn.Next[0]
			curr = next
			sc, sn = sn, 3-sc-sn
		}
		return count, to, false
	}
}

// Len reports the element count; writers maintain it under mu.
func (s *SkipList) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// LevelOf reports the tower height of key (0 if absent); quiescent use.
func (s *SkipList) LevelOf(key uint64) int {
	_, found := s.findPreds(key)
	if found.IsNil() {
		return 0
	}
	return s.arena.Get(found).Level
}

// Drain tears the structure down at quiescence.
func (s *SkipList) Drain() {
	ref := mem.Ref(s.heads[0].Load())
	for l := range s.heads {
		s.heads[l].Store(0)
	}
	for !ref.IsNil() {
		n := s.arena.Get(ref)
		next := mem.Ref(n.Next[0].Load()).Unmarked()
		if s.byteVals {
			// Linked towers are never marked (Remove unlinks under mu), so
			// every linked node still owns its payload.
			if pRef := mem.Ref(n.Val.Load()); !pRef.IsNil() {
				s.arena.Free(pRef)
			}
		}
		s.arena.Free(ref)
		ref = next
	}
	s.dom.Drain()
}
