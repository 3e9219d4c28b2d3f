package mem

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/atomicx"
)

// This file is the size-class half of the arena: a tcmalloc-style ladder of
// byte-payload classes layered on the same generation-CAS + sharded-magazine
// design as the typed slot class. Every byte block is addressed by a Ref
// whose class bits select the ladder rung; the block carries the same Header
// as a typed slot, so reclamation schemes stamp eras, count references and
// free byte payloads through exactly the code paths they use for nodes.
//
// # Slab growth publication protocol
//
// Per class, slabs live in a fixed table of atomic pointers. A thread that
// bumps the class cursor into an unpublished slab builds the slab COMPLETELY
// off to the side — headers zeroed (generation 0), data poisoned when the
// arena is checked — and then publishes it with a single CompareAndSwap of
// the table cell. Losers of the race discard their slab and adopt the
// winner's. This mirrors the session registry's SlotBlock growth protocol
// (reclaim/handle.go): because the CAS is the first time the slab becomes
// reachable and Go atomics are seq-cst, any thread that can name an index
// inside the slab (it got a Ref) observes fully initialized memory — no
// locks anywhere on the growth path. The typed class-0 slab table in
// arena.go uses the same CAS publication.
//
// # Full-extent poisoning (checked mode)
//
// Free fills the ENTIRE class extent with poisonByte and Alloc verifies the
// extent is still intact before recycling: a single byte written past a
// neighbouring block's payload lands in this block's poisoned extent while
// it sits on the freelist and is reported as a fault at the next alloc —
// the variable-size generalization of WithPoisonCheck.

const (
	// NumByteClasses is the number of rungs on the byte size-class ladder;
	// class ids 1..NumByteClasses address them (class 0 is the typed class).
	NumByteClasses = 14

	// MaxPayload is the largest allocatable byte payload.
	MaxPayload = 4096

	// ByteMagazineSize is the capacity of each per-shard per-class magazine;
	// spill/refill move half at a time, like the typed magazines.
	ByteMagazineSize = 32
	byteMagSpill     = ByteMagazineSize / 2

	// maxByteSlabs bounds each class's slab table.
	maxByteSlabs = 1024

	// poisonByte fills freed byte extents in checked mode.
	poisonByte = 0xD5
)

// classSizes is the ladder: 16B..4KB with power-of-two-ish spacing (the
// classic doubling sequence with intermediate steps to cap internal
// fragmentation at 50%, 33% above 64B).
var classSizes = [NumByteClasses]int{
	16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048, 4096,
}

// classOf maps a payload length to its ladder class id in O(1).
var classOf [MaxPayload + 1]uint8

func init() {
	c := 0
	for n := 0; n <= MaxPayload; n++ {
		if n > classSizes[c] {
			c++
		}
		classOf[n] = uint8(c + 1)
	}
}

// SizeToClass returns the ladder class id (1..NumByteClasses) whose blocks
// hold a payload of n bytes, or 0 when n is out of range.
func SizeToClass(n int) int {
	if n < 0 || n > MaxPayload {
		return 0
	}
	return int(classOf[n])
}

// ClassSize returns the payload capacity of ladder class id c, or 0 for
// class 0 / out-of-range ids.
func ClassSize(c int) int {
	if c < 1 || c > NumByteClasses {
		return 0
	}
	return classSizes[c-1]
}

// slotHdr is the per-block metadata of a byte slab: the shared SMR Header,
// the freelist link, and the logical payload length (valid while allocated).
type slotHdr struct {
	hdr      Header
	nextFree atomic.Uint64
	n        uint32
}

// slotHdrBytes is the per-block header footprint, used for class-aware byte
// accounting (RefBytes / ClassFootprints).
var slotHdrBytes = unsafe.Sizeof(slotHdr{})

// byteSlab is one published slab of a byte class: parallel header and data
// arrays (block i's payload is data[i*size : (i+1)*size]).
type byteSlab struct {
	hdrs []slotHdr
	data []byte
}

// classState is the central (shared) state of one ladder class.
type classState struct {
	size  int    // payload capacity per block
	shift uint   // log2(blocks per slab)
	mask  uint64 // blocks-per-slab - 1

	slabs     []atomic.Pointer[byteSlab] // maxByteSlabs cells, CAS-published
	cursor    atomic.Uint64              // last never-recycled index handed out
	freeHead  atomic.Uint64              // Ref-encoded head of the class freelist
	slabCount atomic.Int64

	// Global-path counters (out-of-range shard ids); sharded traffic lands
	// on the per-shard stripes below.
	allocs  atomic.Int64
	frees   atomic.Int64
	fresh   atomic.Int64
	spills  atomic.Int64
	refills atomic.Int64
}

// byteMagState is one shard's magazine for one class, plus that shard's
// share of the striped counters (owner-only writes, atomic for Stats).
type byteMagState struct {
	mag [ByteMagazineSize]Ref
	n   int

	allocs atomic.Int64
	frees  atomic.Int64
	fresh  atomic.Int64
}

// byteShardState is one shard's magazines across every class.
type byteShardState struct {
	cls [NumByteClasses]byteMagState
}

// byteShard pads byteShardState to whole cache lines so neighbouring shards
// never share a line (same construction as the typed shard type).
type byteShard struct {
	byteShardState
	_ [(atomicx.CacheLineSize - unsafe.Sizeof(byteShardState{})%atomicx.CacheLineSize) % atomicx.CacheLineSize]byte
}

// byteClasses is the byte-payload side of an arena, enabled by
// WithByteClasses. It shares the owning arena's checked mode and fault
// handler; refs it hands out carry class ids 1..NumByteClasses.
type byteClasses struct {
	checked bool
	fault   func(string)

	classes [NumByteClasses]classState
	shards  []byteShard
}

// newByteClasses sizes the ladder. Slabs target ~1MB of payload each, with
// at least 64 blocks per slab so small classes amortize growth.
func newByteClasses(shards int, checked bool, fault func(string)) *byteClasses {
	bc := &byteClasses{
		checked: checked,
		fault:   fault,
		shards:  make([]byteShard, shards),
	}
	for i := range bc.classes {
		c := &bc.classes[i]
		c.size = classSizes[i]
		shift := uint(20) // 1MB slab target
		for s := c.size; s > 1; s >>= 1 {
			shift--
		}
		if shift < 6 {
			shift = 6
		}
		c.shift = shift
		c.mask = 1<<shift - 1
		c.slabs = make([]atomic.Pointer[byteSlab], maxByteSlabs)
	}
	return bc
}

func (bc *byteClasses) class(ref Ref) *classState {
	return &bc.classes[ref.Class()-1]
}

// slabFor returns the published slab holding index, faulting when the index
// points into unpublished space (a forged or poisoned ref).
func (bc *byteClasses) slabFor(c *classState, index uint64) *byteSlab {
	sl := c.slabs[index>>c.shift].Load()
	if sl == nil {
		bc.fault(fmt.Sprintf("dereference of byte index %d in unallocated slab (class %dB)", index, c.size))
		return nil
	}
	return sl
}

func (bc *byteClasses) hdrAt(c *classState, index uint64) *slotHdr {
	return &bc.slabFor(c, index).hdrs[index&c.mask]
}

// extent returns block index's full class-sized payload extent.
func (bc *byteClasses) extent(c *classState, index uint64) []byte {
	sl := bc.slabFor(c, index)
	off := int(index&c.mask) * c.size
	return sl.data[off : off+c.size : off+c.size]
}

// growSlab publishes the slab containing index if nobody has yet: build
// completely, then one CAS (see the protocol comment at the top of the
// file). The loser's slab is garbage; the winner's is adopted.
func (bc *byteClasses) growSlab(c *classState, slabIdx uint64) {
	if slabIdx >= maxByteSlabs {
		bc.fault(fmt.Sprintf("byte slab table exhausted (class %dB)", c.size))
		return
	}
	cell := &c.slabs[slabIdx]
	if cell.Load() != nil {
		return
	}
	blocks := int(c.mask) + 1
	sl := &byteSlab{
		hdrs: make([]slotHdr, blocks),
		data: make([]byte, blocks*c.size),
	}
	if bc.checked {
		for i := range sl.data {
			sl.data[i] = poisonByte
		}
	}
	if cell.CompareAndSwap(nil, sl) {
		c.slabCount.Add(1)
	}
}

// allocFresh extends the class bump cursor (index 0 is reserved as nil).
func (bc *byteClasses) allocFresh(class int, c *classState) Ref {
	index := c.cursor.Add(1)
	if index > MaxIndex {
		bc.fault(fmt.Sprintf("byte index space exhausted (class %dB)", c.size))
	}
	bc.growSlab(c, index>>c.shift)
	h := bc.hdrAt(c, index)
	// Fresh checked-mode blocks carry the slab-fill poison; clear the canary
	// before handing the extent out.
	if bc.checked {
		clearPoison(bc.extent(c, index))
	}
	h.hdr.resetForAlloc()
	return MakeClassRef(class, index, h.hdr.Gen())
}

// popGlobal pops one block off the class freelist; same generation-CAS ABA
// protection as the typed arena's freelist.
func (bc *byteClasses) popGlobal(c *classState) (Ref, bool) {
	for {
		head := Ref(c.freeHead.Load())
		if head.IsNil() {
			return NilRef, false
		}
		h := bc.hdrAt(c, head.ClassIndex())
		next := h.nextFree.Load()
		if c.freeHead.CompareAndSwap(uint64(head), next) {
			return head, true
		}
	}
}

func (bc *byteClasses) pushGlobal(c *classState, ref Ref) {
	h := bc.hdrAt(c, ref.ClassIndex())
	for {
		head := c.freeHead.Load()
		h.nextFree.Store(head)
		if c.freeHead.CompareAndSwap(head, uint64(ref)) {
			return
		}
	}
}

// checkCanary verifies a recycled block's extent still carries the poison
// fill — a corrupted byte means someone wrote through a stale ref or overran
// a neighbouring block while this one sat free.
func (bc *byteClasses) checkCanary(ref Ref, c *classState) {
	ext := bc.extent(c, ref.ClassIndex())
	for i, b := range ext {
		if b != poisonByte {
			bc.fault(fmt.Sprintf("freed byte block corrupted at offset %d of %v (class %dB): overrun into a freed neighbour or use-after-free write", i, ref, c.size))
			return
		}
	}
}

func clearPoison(ext []byte) {
	for i := range ext {
		ext[i] = 0
	}
}

// finishAlloc validates/clears a recycled block and returns its payload
// slice trimmed to n logical bytes.
func (bc *byteClasses) finishAlloc(ref Ref, c *classState, n int, recycled bool) []byte {
	index := ref.ClassIndex()
	h := bc.hdrAt(c, index)
	if bc.checked && recycled {
		bc.checkCanary(ref, c)
		clearPoison(bc.extent(c, index))
	}
	h.hdr.resetForAlloc()
	h.n = uint32(n)
	off := int(index&c.mask) * c.size
	sl := bc.slabFor(c, index)
	return sl.data[off : off+n : off+c.size]
}

// alloc is the shared-path allocation (out-of-range shard ids).
func (bc *byteClasses) alloc(class int, n int) (Ref, []byte) {
	c := &bc.classes[class-1]
	if ref, ok := bc.popGlobal(c); ok {
		c.allocs.Add(1)
		return ref, bc.finishAlloc(ref, c, n, true)
	}
	ref := bc.allocFresh(class, c)
	c.allocs.Add(1)
	c.fresh.Add(1)
	hh := bc.hdrAt(c, ref.ClassIndex())
	hh.n = uint32(n)
	off := int(ref.ClassIndex()&c.mask) * c.size
	sl := bc.slabFor(c, ref.ClassIndex())
	return ref, sl.data[off : off+n : off+c.size]
}

// allocAt is alloc served from the shard's per-class magazine with batched
// refill, mirroring Arena.AllocAt.
func (bc *byteClasses) allocAt(shard, class, n int) (Ref, []byte) {
	if shard < 0 || shard >= len(bc.shards) {
		return bc.alloc(class, n)
	}
	c := &bc.classes[class-1]
	m := &bc.shards[shard].cls[class-1]
	if m.n == 0 && !bc.refill(c, m) {
		ref := bc.allocFresh(class, c)
		m.allocs.Add(1)
		m.fresh.Add(1)
		hh := bc.hdrAt(c, ref.ClassIndex())
		hh.n = uint32(n)
		off := int(ref.ClassIndex()&c.mask) * c.size
		sl := bc.slabFor(c, ref.ClassIndex())
		return ref, sl.data[off : off+n : off+c.size]
	}
	m.n--
	ref := m.mag[m.n]
	m.allocs.Add(1)
	return ref, bc.finishAlloc(ref, c, n, true)
}

// release validates ref, bumps the generation and poisons the full extent,
// returning the next-incarnation ref (mirrors Arena.releaseSlot).
func (bc *byteClasses) release(ref Ref) (Ref, bool) {
	ref = ref.Unmarked()
	c := bc.class(ref)
	h := bc.hdrAt(c, ref.ClassIndex())
	if bc.checked && h.hdr.Gen() != ref.Gen() {
		bc.fault(fmt.Sprintf("double or stale free: %v, slot generation %d", ref, h.hdr.Gen()))
		return NilRef, false
	}
	g := h.hdr.gen.Add(1)
	if bc.checked {
		ext := bc.extent(c, ref.ClassIndex())
		for i := range ext {
			ext[i] = poisonByte
		}
	}
	h.n = 0
	return MakeClassRef(ref.Class(), ref.ClassIndex(), g), true
}

// free returns the block to the class freelist (shared path).
func (bc *byteClasses) free(ref Ref) {
	newRef, ok := bc.release(ref)
	if !ok {
		return
	}
	c := bc.class(newRef)
	c.frees.Add(1)
	bc.pushGlobal(c, newRef)
}

// freeAt frees into the shard's per-class magazine, spilling half to the
// class freelist when full (mirrors Arena.FreeAt). countFree lets batch
// callers suppress the per-op counter bump when they fold it themselves.
func (bc *byteClasses) freeAt(shard int, ref Ref, countFree bool) {
	if shard < 0 || shard >= len(bc.shards) {
		bc.free(ref)
		return
	}
	newRef, ok := bc.release(ref)
	if !ok {
		return
	}
	c := bc.class(newRef)
	m := &bc.shards[shard].cls[newRef.Class()-1]
	if m.n == ByteMagazineSize {
		bc.spill(c, m)
	}
	m.mag[m.n] = newRef
	m.n++
	if countFree {
		m.frees.Add(1)
	}
}

// refill moves up to half a magazine from the class freelist into m.
func (bc *byteClasses) refill(c *classState, m *byteMagState) bool {
	for m.n < byteMagSpill {
		ref, ok := bc.popGlobal(c)
		if !ok {
			break
		}
		m.mag[m.n] = ref
		m.n++
	}
	if m.n > 0 {
		c.refills.Add(1)
		return true
	}
	return false
}

// spill pushes the oldest half of m onto the class freelist as one
// pre-linked chain — one head CAS for the whole batch.
func (bc *byteClasses) spill(c *classState, m *byteMagState) {
	for i := 0; i < byteMagSpill-1; i++ {
		bc.hdrAt(c, m.mag[i].ClassIndex()).nextFree.Store(uint64(m.mag[i+1]))
	}
	tail := bc.hdrAt(c, m.mag[byteMagSpill-1].ClassIndex())
	for {
		head := c.freeHead.Load()
		tail.nextFree.Store(head)
		if c.freeHead.CompareAndSwap(head, uint64(m.mag[0])) {
			break
		}
	}
	copy(m.mag[:], m.mag[byteMagSpill:])
	m.n -= byteMagSpill
	c.spills.Add(1)
}

// header returns the SMR metadata block (no generation check; see
// Arena.Header).
func (bc *byteClasses) header(ref Ref) *Header {
	c := bc.class(ref)
	return &bc.hdrAt(c, ref.Unmarked().ClassIndex()).hdr
}

// bytes dereferences ref to its logical payload; a generation mismatch is a
// detected fault in checked mode (mirrors Arena.Get).
func (bc *byteClasses) bytes(ref Ref) []byte {
	ref = ref.Unmarked()
	c := bc.class(ref)
	h := bc.hdrAt(c, ref.ClassIndex())
	if bc.checked && h.hdr.Gen() != ref.Gen() {
		bc.fault(fmt.Sprintf("use-after-free dereference: %v, slot generation %d", ref, h.hdr.Gen()))
	}
	off := int(ref.ClassIndex()&c.mask) * c.size
	n := int(h.n)
	sl := bc.slabFor(c, ref.ClassIndex())
	return sl.data[off : off+n : off+c.size]
}

// checkAccess is the assertion-mode probe (mirrors Arena.CheckAccess): the
// generation must match or the access is a detected fault. Poison coverage
// for byte blocks happens at recycle time (checkCanary verifies the whole
// extent), so no per-access poison predicate is needed here.
func (bc *byteClasses) checkAccess(ref Ref) bool {
	ref = ref.Unmarked()
	c := bc.class(ref)
	h := bc.hdrAt(c, ref.ClassIndex())
	if h.hdr.Gen() != ref.Gen() {
		bc.fault(fmt.Sprintf("access to reclaimed byte block: %v, slot generation %d", ref, h.hdr.Gen()))
		return false
	}
	return true
}

func (bc *byteClasses) validate(ref Ref) bool {
	ref = ref.Unmarked()
	c := bc.class(ref)
	return bc.hdrAt(c, ref.ClassIndex()).hdr.Gen() == ref.Gen()
}

// ClassStat is a per-size-class accounting snapshot (Class 0 is the arena's
// typed slot class; 1..NumByteClasses are the byte ladder rungs).
type ClassStat struct {
	Class     int   `json:"class"`     // class id
	Size      int   `json:"size"`      // payload capacity per block (typed: the value footprint)
	Footprint int64 `json:"footprint"` // total bytes per block including header
	Allocs    int64 `json:"allocs"`
	Frees     int64 `json:"frees"`
	Reuses    int64 `json:"reuses"`
	Live      int64 `json:"live"`
	Slabs     int64 `json:"slabs"`    // published slabs
	Capacity  int64 `json:"capacity"` // blocks addressable through published slabs
	Spills    int64 `json:"spills"`   // magazine→freelist batch moves
	Refills   int64 `json:"refills"`  // freelist→magazine batch moves
}

// stats folds one class's central and striped counters.
func (bc *byteClasses) stats(class int) ClassStat {
	c := &bc.classes[class-1]
	allocs, frees, fresh := c.allocs.Load(), c.frees.Load(), c.fresh.Load()
	for i := range bc.shards {
		m := &bc.shards[i].cls[class-1]
		allocs += m.allocs.Load()
		frees += m.frees.Load()
		fresh += m.fresh.Load()
	}
	slabs := c.slabCount.Load()
	return ClassStat{
		Class:     class,
		Size:      c.size,
		Footprint: int64(slotHdrBytes) + int64(c.size),
		Allocs:    allocs,
		Frees:     frees,
		Reuses:    allocs - fresh,
		Live:      allocs - frees,
		Slabs:     slabs,
		Capacity:  slabs << c.shift,
		Spills:    c.spills.Load(),
		Refills:   c.refills.Load(),
	}
}
