// Package skiplist implements a concurrent skip list — the ordered-map
// workload of K. Fraser's "Practical lock-freedom" (the Hazard Eras paper's
// reference [10] and the origin of epoch-based reclamation). Like
// internal/list, it is written entirely against the public smr API:
// multi-level traversals protect one node at a time with the same three
// rotating slots as the Harris-Michael list, plus ordered range scans that
// hold protections for the whole scan. Get and Range share one protected
// descent.
//
// Concurrency model (same as internal/bst, documented in DESIGN.md):
// readers (Get/Contains/Range) are lock-free and fully protected through
// the reclamation domain; writers (Insert/Remove) are serialized by a mutex
// and retire replaced nodes through the domain. Writers walk with
// Atomic.Peek and Domain.DerefQuiescent: the mutex serializes every
// retirer, so nothing a writer reaches can be reclaimed under it. Insert
// links bottom-up so a node appears atomically at level 0 (its
// linearization point); Remove unlinks top-down and retires only after the
// node is off every level, so the reader-side validation invariant holds:
// a node reachable from a validated edge has not been retired. Writers
// take the mutex through schedtest.Lock, so a writer waiting on it under a
// deterministic schedule hands the token on instead of blocking.
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

	"repro/internal/schedtest"
	"repro/smr"
)

// MaxLevel is the tallest tower; 16 levels cover ~2^16 expected elements at
// p = 1/2 and match typical skip list deployments.
const MaxLevel = 16

// Slots is the protection-slot count traversals need: three rotating slots
// (prev / curr / next), exactly as the Harris-Michael list.
const Slots = 3

// Node is a skip-list tower. Key, Val and Level are immutable after
// publication; Next[l] for l < Level are the per-level successor links. Val
// is an atomic value cell because in byte-value mode it names a size-class
// payload block that readers protect through it.
type Node struct {
	Key   uint64
	Val   smr.AtomicBytes
	Level int
	Next  [MaxLevel]smr.Atomic[Node]
}

// PoisonNode smashes a freed node.
func PoisonNode(n *Node) {
	n.Key = 0xDEADDEADDEADDEAD
	n.Val.Store(smr.BytesOf(smr.InvalidRef()))
	for l := range n.Next {
		n.Next[l].Store(smr.PtrOf[Node](smr.InvalidRef()))
	}
}

// SkipList is the concurrent ordered map.
type SkipList struct {
	d *smr.Domain[Node]
	// heads[l] is the static level-l list head (needs no protection).
	heads [MaxLevel]smr.Atomic[Node]
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
func New(mk smr.Factory, opts ...Option) *SkipList {
	c := config{threads: 64, seed: 1}
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
	return &SkipList{d: d, rng: c.seed | 1, byteVals: c.byteVals, valSizer: c.valSizer}
}

// Domain exposes the scheme-level backend for generic drivers.
func (s *SkipList) Domain() smr.Backend { return s.d.Backend() }

// Arena exposes the node arena.
func (s *SkipList) Arena() *smr.Arena[Node] { return s.d.Arena() }

// Register opens a session on the skip list's domain.
func (s *SkipList) Register() *smr.Guard { return s.d.Register() }

// Acquire returns a pooled session on the skip list's domain.
func (s *SkipList) Acquire() *smr.Guard { return s.d.Acquire() }

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
	v, _, ok := s.get(g, key, readVal)
	return v, ok
}

// GetBytes returns a copy of key's payload block (byte-value mode only);
// the copy is taken while the payload is still protected.
func (s *SkipList) GetBytes(g *smr.Guard, key uint64) ([]byte, bool) {
	_, buf, ok := s.get(g, key, readCopy)
	return buf, ok
}

// Contains reports membership of key.
func (s *SkipList) Contains(g *smr.Guard, key uint64) bool {
	_, _, ok := s.get(g, key, readNone)
	return ok
}

// get read modes: membership only, decoded value word, payload copy.
const (
	readNone = iota
	readVal
	readCopy
)

// descend is the protected descent Get and Range share. Inside g's open
// operation window it returns the first level-0 node with key >= key (nil
// at the end of the list), protected at slot sc, and the level-0 cell it
// was loaded from; slot sn is free. A marked load or a changed edge on the
// way restarts the descent from the top.
func (s *SkipList) descend(g *smr.Guard, key uint64) (cell *smr.Atomic[Node], curr smr.Ptr[Node], sc, sn int) {
	d := s.d
retry:
	for {
		sc, sn = 1, 2
		level := MaxLevel - 1
		var prev *Node              // owner of cell; nil while prev is the static head
		var pEdge *smr.Atomic[Node] // incoming edge of prev (nil for the head)
		var pExpect smr.Ptr[Node]   // what pEdge held when prev was adopted
		cell = &s.heads[level]
		curr = cell.Load(g, sc) // head cells are never marked
		for {
			// Advance horizontally while curr.Key < key.
			for !curr.IsNil() {
				cn := d.Deref(g, curr)
				if cn.Key >= key {
					break
				}
				next := cn.Next[level].Load(g, sn)
				schedtest.Point(schedtest.PointCAS)
				// A marked load means curr's tower is being (or has been)
				// deleted: its cells will never change again, so only the
				// mark reveals the staleness.
				if next.Marked() {
					continue retry
				}
				// curr must still be linked where we found it, which also
				// proves cn.Next was current when next was protected.
				if cell.Peek() != curr {
					continue retry
				}
				pEdge, pExpect = cell, curr
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
				return cell, curr, sc, sn
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
			curr = cell.Load(g, sc)
			schedtest.Point(schedtest.PointCAS)
			if curr.Marked() {
				continue retry // prev's tower is being deleted
			}
			if pEdge != nil && pEdge.Peek() != pExpect {
				continue retry
			}
		}
	}
}

func (s *SkipList) get(g *smr.Guard, key uint64, mode int) (val uint64, buf []byte, ok bool) {
	d := s.d
	g.BeginOp()
	defer g.EndOp()
	for {
		_, curr, _, sn := s.descend(g, key)
		if curr.IsNil() {
			return 0, nil, false
		}
		cn := d.Deref(g, curr)
		if cn.Key != key {
			return 0, nil, false
		}
		if mode == readNone {
			return 0, nil, true
		}
		if !s.byteVals {
			return cn.Val.LoadWord(), nil, true
		}
		// Byte mode: the payload is a separate block that Remove retires,
		// so it needs its own protection. Slot sn is dead here (the
		// traversal is over), so publish there, then re-check the level-0
		// cell is still unmarked: unmarked after the publish means the
		// tower mark — which precedes the payload's retirement — had not
		// yet happened, so the retirer's scan is obligated to honor this
		// hold.
		pRef := cn.Val.Load(g, sn)
		schedtest.Point(schedtest.PointCAS)
		if cn.Next[0].Peek().Marked() {
			continue
		}
		p := d.DerefBytes(g, pRef)
		if mode == readCopy {
			buf = append([]byte(nil), p...)
		}
		return smr.DecodePayload(p), buf, true
	}
}

// findPreds locates, for every level, the last node with key < key.
// Writer-only (called under mu): writers are the only retirers, so the
// writer lock counts as quiescence and their Peek traversals never see
// freed nodes.
func (s *SkipList) findPreds(key uint64) (preds [MaxLevel]*smr.Atomic[Node], found smr.Ptr[Node]) {
	var prev *Node
	for level := MaxLevel - 1; level >= 0; level-- {
		var cell *smr.Atomic[Node]
		if prev == nil {
			cell = &s.heads[level]
		} else {
			cell = &prev.Next[level]
		}
		for {
			curr := cell.Peek()
			if curr.IsNil() {
				break
			}
			cn := s.d.DerefQuiescent(curr)
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
	return s.insert(g, key, val, nil)
}

// InsertBytes adds key->raw, storing a copy of raw as the payload block.
// Byte-value mode only; the arena faults otherwise.
func (s *SkipList) InsertBytes(g *smr.Guard, key uint64, raw []byte) bool {
	return s.insert(g, key, 0, raw)
}

func (s *SkipList) insert(g *smr.Guard, key, val uint64, raw []byte) bool {
	d := s.d
	schedtest.Lock(&s.mu)
	defer s.mu.Unlock()
	preds, found := s.findPreds(key)
	if !found.IsNil() {
		return false
	}
	level := s.randomLevel()
	ref, n := d.Alloc(g)
	n.Key, n.Level = key, level
	var b smr.Bytes
	if s.byteVals || raw != nil {
		if raw != nil {
			b = d.PutBytes(g, raw)
		} else {
			var p []byte
			b, p = d.AllocBytes(g, smr.PayloadSize(s.valSizer, key))
			smr.EncodePayload(p, val)
		}
		n.Val.Store(b)
	} else {
		n.Val.StoreWord(val)
	}
	for l := 0; l < level; l++ {
		n.Next[l].Store(preds[l].Peek())
	}
	// Birth stamps before the node (and through it, the payload) becomes
	// visible.
	if !b.IsNil() {
		d.Publish(b.Ref())
	}
	d.Publish(ref.Ref())
	for l := 0; l < level; l++ {
		preds[l].Store(ref)
	}
	s.size++
	return true
}

// Remove deletes key; false if absent. Writer-serialized. The tower is
// unlinked top-down — level 0 last, the linearization point — and the node
// is retired only once it is unreachable from every level, which is the
// precondition the reader-side validation relies on.
func (s *SkipList) Remove(g *smr.Guard, key uint64) bool {
	schedtest.Lock(&s.mu)
	defer s.mu.Unlock()
	preds, found := s.findPreds(key)
	if found.IsNil() {
		return false
	}
	n := s.d.DerefQuiescent(found)
	// Phase 1: mark every level cell of the tower. From this point any
	// reader that loads through the dying node sees the mark and restarts.
	for l := n.Level - 1; l >= 0; l-- {
		n.Next[l].Store(n.Next[l].Peek().WithMark())
		schedtest.Point(schedtest.PointCAS)
	}
	// Phase 2: unlink top-down; level 0 is the linearization point.
	for l := n.Level - 1; l >= 0; l-- {
		if preds[l].Peek() == found {
			preds[l].Store(n.Next[l].Peek().Unmarked())
			schedtest.Point(schedtest.PointCAS)
		}
	}
	// Payload before node: the ref must be read before the node can be
	// freed, and retiring it first keeps the free order payload-then-node.
	if s.byteVals {
		g.Retire(n.Val.Peek().Ref())
	}
	g.Retire(found.Ref())
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
	count := 0
	cursor := from
	for cursor < to {
		// Locate the first key >= cursor with a protected descent, then
		// walk level 0 until invalidated.
		g.BeginOp()
		visited, next, again := s.rangeSegment(g, cursor, to, fn)
		g.EndOp()
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
func (s *SkipList) rangeSegment(g *smr.Guard, cursor, to uint64, fn func(key, val uint64) bool) (int, uint64, bool) {
	d := s.d
	cell, curr, sc, sn := s.descend(g, cursor)
	// Walk level 0 reporting elements until to, an invalidation, or the
	// end of the list.
	count := 0
	for !curr.IsNil() {
		cn := d.Deref(g, curr)
		if cn.Key >= to {
			return count, to, false
		}
		val := uint64(0)
		if s.byteVals {
			// Protect the payload at sn — dead at this point; it is
			// re-targeted at cn.Next[0] right after the report. A mark
			// seen after the publish means the payload may already be
			// retired: resume at cn.Key itself (not reported yet).
			pRef := cn.Val.Load(g, sn)
			if cn.Next[0].Peek().Marked() {
				return count, cn.Key, true
			}
			val = smr.DecodePayload(d.DerefBytes(g, pRef))
		} else {
			val = cn.Val.LoadWord()
		}
		if !fn(cn.Key, val) {
			return count, to, false
		}
		count++
		resume := cn.Key + 1
		next := cn.Next[0].Load(g, sn)
		if next.Marked() || cell.Peek() != curr {
			// Invalidated mid-scan: resume past the last reported key.
			return count, resume, true
		}
		cell = &cn.Next[0]
		curr = next
		sc, sn = sn, 3-sc-sn
	}
	return count, to, false
}

// Len reports the element count; writers maintain it under mu.
func (s *SkipList) Len() int {
	schedtest.Lock(&s.mu)
	defer s.mu.Unlock()
	return s.size
}

// LevelOf reports the tower height of key (0 if absent); quiescent use.
func (s *SkipList) LevelOf(key uint64) int {
	_, found := s.findPreds(key)
	if found.IsNil() {
		return 0
	}
	return s.d.DerefQuiescent(found).Level
}

// Drain tears the structure down at quiescence.
func (s *SkipList) Drain() {
	p := s.heads[0].Peek()
	for l := range s.heads {
		s.heads[l].Store(smr.Ptr[Node]{})
	}
	for !p.IsNil() {
		n := s.d.DerefQuiescent(p)
		next := n.Next[0].Peek().Unmarked()
		if s.byteVals {
			// Linked towers are never marked (Remove unlinks under mu), so
			// every linked node still owns its payload.
			if b := n.Val.Peek(); !b.IsNil() {
				s.d.Drop(b.Ref())
			}
		}
		s.d.Drop(p.Ref())
		p = next
	}
	s.d.Drain()
}
