package mem

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/atomicx"
)

const (
	// slabShift sets the slab size: 1<<slabShift slots per slab.
	slabShift = 13
	slabSize  = 1 << slabShift
	slabMask  = slabSize - 1

	// maxSlabs bounds the arena at maxSlabs*slabSize slots (~134M).
	maxSlabs = 1 << 14

	// MagazineSize is the capacity of each per-shard free-slot magazine
	// (see AllocAt/FreeAt). Spills and refills move half a magazine at a
	// time, so in steady state a thread touches the shared freelist once
	// every MagazineSize/2 operations instead of on every one.
	MagazineSize = 64
	// magazineSpill is the batch moved between a magazine and the global
	// freelist on overflow/underflow.
	magazineSpill = MagazineSize / 2
)

// slotMeta is one slot's metadata cell: the SMR header and the freelist
// linkage. It lives in its slab's meta array, apart from the value.
type slotMeta struct {
	hdr Header
	// nextFree holds the Ref of the next free slot while this slot sits on
	// the freelist; undefined while allocated.
	nextFree atomic.Uint64
}

// slab is one published block of slabSize slots, stored as two parallel
// arrays indexed alike. A traversal reads values only (keys and links), so
// keeping each 48-byte metadata cell out of the value array packs the
// values a walk touches into as few cache lines as their own size allows;
// the metadata is read by the retirer, the scans and the freelist.
type slab[T any] struct {
	val  [slabSize]T
	meta [slabSize]slotMeta
}

// slot is a by-value view of one arena cell: pointers to its metadata cell
// and its value. Callers hold it in locals and never take its address, so
// it stays in registers and costs no allocation.
type slot[T any] struct {
	*slotMeta
	val *T
}

// Stats is a snapshot of arena accounting.
type Stats struct {
	Allocs   int64 // total successful Alloc calls
	Frees    int64 // total Free calls
	Reuses   int64 // Allocs served from the freelist (recycled memory)
	Live     int64 // Allocs - Frees
	PeakLive int64 // high-water mark of Live
	Faults   int64 // detected memory-safety violations (checked mode)
}

// shardState is one allocation shard: a private magazine of free slot refs
// plus that shard's share of the striped counters. The magazine fields are
// owner-only (a shard id is a reclamation-domain thread id, and tid reuse
// is synchronized by the domain registry's mutex), so they need no atomics;
// the counters are atomic only so Stats can fold them concurrently.
type shardState struct {
	mag [MagazineSize]Ref
	n   int

	allocs atomic.Int64
	frees  atomic.Int64
	// fresh counts the AllocAt calls served by the bump cursor; the shard's
	// recycled-allocation count is derived as allocs-fresh, so the hot
	// magazine-hit path updates a single counter, not two.
	fresh atomic.Int64
}

// shard pads shardState out to a whole number of cache lines so
// neighbouring shards never share a line; the pad length is computed from
// unsafe.Sizeof so adding a field can never silently unbalance it.
type shard struct {
	shardState
	_ [(atomicx.CacheLineSize - unsafe.Sizeof(shardState{})%atomicx.CacheLineSize) % atomicx.CacheLineSize]byte
}

// Arena is a slab allocator for values of type T, addressed by Refs.
// All methods are safe for concurrent use. See the package comment for why
// this exists.
type Arena[T any] struct {
	checked     bool
	poison      func(*T)
	poisonCheck func(*T) bool
	onFault     func(string)
	wantBytes   bool

	// slabs is CAS-published: allocFresh builds a slab off to the side and
	// installs it with a single CompareAndSwap, so growth is lock-free (see
	// the publication-protocol comment in class.go — the byte classes use
	// the identical scheme).
	slabs [maxSlabs]atomic.Pointer[slab[T]]

	cursor   atomic.Uint64 // last never-recycled index handed out
	freeHead atomic.Uint64 // Ref-encoded head of the lock-free freelist

	// shards holds the per-thread magazines used by AllocAt/FreeAt.
	shards []shard

	// bytes is the byte-payload size-class ladder, nil unless enabled with
	// WithByteClasses. Refs with non-zero class bits route here.
	bytes *byteClasses

	allocs   atomic.Int64
	frees    atomic.Int64
	reuses   atomic.Int64
	faults   atomic.Int64
	peakLive atomicx.HighWaterMark

	// allocHook, when installed via SetAllocHook, observes every allocation
	// (typed and byte-class) with the shard it was served on (-1 for the
	// shared path). Nil in production: each alloc path pays one untaken
	// branch, matching the repo's nil-gated observability discipline. The
	// lifecycle tracer uses it as the alloc-time sampling point.
	allocHook func(shard int, ref Ref)
}

// Option configures an Arena.
type Option[T any] func(*Arena[T])

// Checked enables generation-validated dereference and double-free
// detection. It is the default for tests and the stress tool; benchmarks
// construct unchecked arenas so that validation cost does not pollute the
// throughput comparison.
func Checked[T any](on bool) Option[T] {
	return func(a *Arena[T]) { a.checked = on }
}

// WithPoison installs a payload poisoner invoked on every Free. Data
// structures use it to smash their key/next fields so that a use-after-free
// read is conspicuous even when generation checking is off.
func WithPoison[T any](poison func(*T)) Option[T] {
	return func(a *Arena[T]) { a.poison = poison }
}

// WithFaultHandler replaces the default fault reaction (panic) — used by
// tests that assert a violation is detected rather than crash.
func WithFaultHandler[T any](h func(msg string)) Option[T] {
	return func(a *Arena[T]) { a.onFault = h }
}

// WithPoisonCheck installs the inverse of WithPoison: a predicate that
// reports whether a payload still carries the poison pattern. CheckAccess
// uses it to catch reads of recycled-then-poisoned memory even when the
// slot's generation happens to have wrapped back to the ref's.
func WithPoisonCheck[T any](poisoned func(*T) bool) Option[T] {
	return func(a *Arena[T]) { a.poisonCheck = poisoned }
}

// WithShards sets the number of per-thread allocation shards (magazines)
// served by AllocAt/FreeAt. Shard ids are reclamation-domain thread ids;
// calls with an id outside [0, n) fall back to the shared freelist. The
// default of 64 matches reclaim.Config's default MaxThreads.
func WithShards[T any](n int) Option[T] {
	return func(a *Arena[T]) {
		if n < 0 {
			n = 0
		}
		a.shards = make([]shard, n)
	}
}

// WithByteClasses enables the byte-payload size-class ladder (class.go):
// AllocBytesAt/PutBytesAt/Bytes become usable and refs with non-zero class
// bits are accepted by Free/Header/CheckAccess. Arenas without this option
// pay nothing for the ladder — the dispatch is a nil-pointer check on a
// field that is always nil, and class-0 refs never take it.
func WithByteClasses[T any]() Option[T] {
	return func(a *Arena[T]) { a.wantBytes = true }
}

// NewArena constructs an empty arena.
func NewArena[T any](opts ...Option[T]) *Arena[T] {
	a := &Arena[T]{shards: make([]shard, 64)}
	for _, o := range opts {
		o(a)
	}
	if a.onFault == nil {
		a.onFault = func(msg string) { panic("mem: " + msg) }
	}
	if a.wantBytes {
		// Built after all options so the ladder inherits the final shard
		// count, checked mode and fault handler.
		a.bytes = newByteClasses(len(a.shards), a.checked, a.fault)
	}
	return a
}

// Checked reports whether generation validation is enabled.
func (a *Arena[T]) Checked() bool { return a.checked }

// SetAllocHook installs the allocation observer (wiring time only, before
// the arena is shared: the field is read without synchronization on the
// alloc fast paths). reclaim.Base.EnableObs installs the lifecycle
// tracer's sampling point here.
func (a *Arena[T]) SetAllocHook(fn func(shard int, ref Ref)) { a.allocHook = fn }

// SlotBytes returns the memory footprint of one arena slot (metadata cell
// + value). The observability layer multiplies pending node counts by it
// to report pending bytes.
func (a *Arena[T]) SlotBytes() uintptr {
	return unsafe.Sizeof(slotMeta{}) + unsafe.Sizeof(*new(T))
}

// slotAt returns the view of slot index, or a view with nil pointers after
// reporting a fault when its slab is unallocated.
func (a *Arena[T]) slotAt(index uint64) slot[T] {
	sl := a.slabs[index>>slabShift].Load()
	if sl == nil {
		a.fault(fmt.Sprintf("dereference of index %d in unallocated slab", index))
		return slot[T]{}
	}
	i := index & slabMask
	return slot[T]{&sl.meta[i], &sl.val[i]}
}

func (a *Arena[T]) fault(msg string) {
	a.faults.Add(1)
	a.onFault(msg)
}

// Alloc returns a fresh slot, recycling freed slots when available. The
// returned Ref is unmarked and carries the slot's current generation.
func (a *Arena[T]) Alloc() (Ref, *T) {
	if ref, ok := a.popGlobal(); ok {
		// Freelist refs carry the slot's current (post-bump) generation —
		// releaseSlot wrote them that way — so ref is already the Ref this
		// incarnation must hand out; no generation reload needed.
		s := a.slotAt(uint64(ref >> idxShift))
		s.hdr.resetForAlloc()
		a.reuses.Add(1)
		a.noteAlloc()
		if h := a.allocHook; h != nil {
			h(-1, ref)
		}
		return ref, s.val
	}
	ref, p := a.allocFresh()
	a.noteAlloc()
	if h := a.allocHook; h != nil {
		h(-1, ref)
	}
	return ref, p
}

// popGlobal pops one slot off the lock-free shared freelist. The Ref stored
// in freeHead carries the generation the slot had when freed, so a
// competing pop/realloc/free cycle changes the head value and the CAS fails
// (no ABA), which is precisely the protection this whole repository is
// about — here applied to the allocator itself.
func (a *Arena[T]) popGlobal() (Ref, bool) {
	for {
		head := Ref(a.freeHead.Load())
		if head.IsNil() {
			return NilRef, false
		}
		s := a.slotAt(uint64(head >> idxShift))
		next := s.nextFree.Load()
		if a.freeHead.CompareAndSwap(uint64(head), next) {
			return head, true
		}
	}
}

// allocFresh extends the bump cursor (index 0 is reserved as nil) and
// returns the never-before-used slot.
func (a *Arena[T]) allocFresh() (Ref, *T) {
	index := a.cursor.Add(1)
	if index > MaxIndex {
		a.fault("arena index space exhausted")
	}
	slabIdx := index >> slabShift
	if slabIdx >= maxSlabs {
		a.fault("arena slab table exhausted")
	}
	// Lock-free growth: build the slab completely, publish with one CAS.
	// Losers discard their slab and adopt the winner's; seq-cst publication
	// means any thread holding an index into the slab sees it initialized.
	if a.slabs[slabIdx].Load() == nil {
		a.slabs[slabIdx].CompareAndSwap(nil, new(slab[T]))
	}
	s := a.slotAt(index)
	s.hdr.resetForAlloc()
	return MakeRef(index, s.hdr.Gen()), s.val
}

func (a *Arena[T]) noteAlloc() {
	live := a.allocs.Add(1) - a.frees.Load()
	a.peakLive.Observe(live)
}

// AllocAt is Alloc served from shard's private magazine: no shared atomics
// on the fast path, a batched refill from the global freelist when the
// magazine runs dry, and the bump cursor when the whole arena has no free
// slots. An out-of-range shard id falls back to the shared path.
func (a *Arena[T]) AllocAt(shard int) (Ref, *T) {
	if shard < 0 || shard >= len(a.shards) {
		return a.Alloc()
	}
	sh := &a.shards[shard].shardState
	if sh.n == 0 && !a.refill(sh) {
		ref, p := a.allocFresh()
		sh.allocs.Add(1)
		sh.fresh.Add(1)
		// Fresh allocation is the only sharded operation that can raise
		// Live, so folding the peak here (not on magazine hits) keeps the
		// fast path cheap without losing the high-water mark.
		a.observePeakLive()
		if h := a.allocHook; h != nil {
			h(shard, ref)
		}
		return ref, p
	}
	sh.n--
	// Magazine refs carry the slot's current generation (releaseSlot and
	// popGlobal both hand out post-bump refs), so ref is returned as-is.
	ref := sh.mag[sh.n]
	s := a.slotAt(uint64(ref >> idxShift))
	s.hdr.resetForAlloc()
	sh.allocs.Add(1)
	if h := a.allocHook; h != nil {
		h(shard, ref)
	}
	return ref, s.val
}

// FreeAt is Free into shard's private magazine, spilling half the magazine
// to the global freelist (one CAS for the whole batch) when it is full. The
// generation bump and poisoning are identical to Free, so stale frees and
// use-after-free detection behave the same on both paths.
func (a *Arena[T]) FreeAt(shard int, ref Ref) {
	if ref>>classShift != 0 {
		a.bytes.freeAt(shard, ref, true)
		return
	}
	if shard < 0 || shard >= len(a.shards) {
		a.Free(ref)
		return
	}
	newRef, ok := a.releaseSlot(ref)
	if !ok {
		return
	}
	sh := &a.shards[shard].shardState
	if sh.n == MagazineSize {
		a.spill(sh)
	}
	sh.mag[sh.n] = newRef
	sh.n++
	sh.frees.Add(1)
}

// FreeBatchAt frees refs into shard's magazine like repeated FreeAt calls,
// but folds the whole batch into one counter update — the reclamation
// schemes' scan passes free dozens of objects at once, and per-object atomic
// counter traffic would dominate the amortized scan cost. Release semantics
// (generation bump, poisoning, stale-free detection) are per-object and
// identical to FreeAt.
func (a *Arena[T]) FreeBatchAt(shard int, refs []Ref) {
	if shard < 0 || shard >= len(a.shards) {
		for _, ref := range refs {
			a.Free(ref)
		}
		return
	}
	sh := &a.shards[shard].shardState
	released := int64(0)
	for _, ref := range refs {
		if ref>>classShift != 0 {
			a.bytes.freeAt(shard, ref, true)
			continue
		}
		newRef, ok := a.releaseSlot(ref)
		if !ok {
			continue
		}
		if sh.n == MagazineSize {
			a.spill(sh)
		}
		sh.mag[sh.n] = newRef
		sh.n++
		released++
	}
	sh.frees.Add(released)
}

// refill moves up to half a magazine from the global freelist into sh.
// Each slot is popped with the same generation-CAS as Alloc, so the ABA
// protection argument carries over unchanged.
func (a *Arena[T]) refill(sh *shardState) bool {
	for sh.n < magazineSpill {
		ref, ok := a.popGlobal()
		if !ok {
			break
		}
		sh.mag[sh.n] = ref
		sh.n++
	}
	return sh.n > 0
}

// spill pushes the oldest half of sh's magazine onto the global freelist as
// one pre-linked chain: the intra-chain links are written once, and only
// the chain tail's link is rewritten if the single head CAS retries.
func (a *Arena[T]) spill(sh *shardState) {
	for i := 0; i < magazineSpill-1; i++ {
		a.slotAt(uint64(sh.mag[i] >> idxShift)).nextFree.Store(uint64(sh.mag[i+1]))
	}
	tail := a.slotAt(uint64(sh.mag[magazineSpill-1] >> idxShift))
	for {
		head := a.freeHead.Load()
		tail.nextFree.Store(head)
		if a.freeHead.CompareAndSwap(head, uint64(sh.mag[0])) {
			break
		}
	}
	copy(sh.mag[:], sh.mag[magazineSpill:])
	sh.n -= magazineSpill
}

// observePeakLive folds the striped counters into the live high-water mark.
func (a *Arena[T]) observePeakLive() {
	allocs, frees := a.allocs.Load(), a.frees.Load()
	for i := range a.shards {
		sh := &a.shards[i].shardState
		allocs += sh.allocs.Load()
		frees += sh.frees.Load()
	}
	a.peakLive.Observe(allocs - frees)
}

// releaseSlot validates ref, bumps the slot's generation (invalidating
// every outstanding Ref to the old incarnation) and poisons the payload,
// returning the slot's next-incarnation Ref. A stale or nil ref is a
// detected fault in checked mode and returns ok=false. Like Get, it and
// the other write-side methods decode refs with bare shifts, not Ref's
// methods, which instantiations outside this package call out of line.
func (a *Arena[T]) releaseSlot(ref Ref) (Ref, bool) {
	ref &^= MarkBit
	index := uint64(ref >> idxShift)
	if index == 0 {
		a.fault("free of nil ref")
		return NilRef, false
	}
	s := a.slotAt(index)
	if a.checked && s.hdr.Gen() != uint32((ref&genMask)>>genShift) {
		a.fault(fmt.Sprintf("double or stale free: %v, slot generation %d", ref, s.hdr.Gen()))
		return NilRef, false
	}
	g := s.hdr.gen.Add(1)
	if a.poison != nil {
		a.poison(s.val)
	}
	// MakeRef masks the generation to GenModulus, so the full-width counter
	// value can be packed directly — no reload through Gen() needed.
	return MakeRef(index, g), true
}

// Free returns the slot to the shared freelist. Freeing with a stale Ref
// (double free or free of a reused slot) is a detected fault in checked
// mode.
func (a *Arena[T]) Free(ref Ref) {
	if ref>>classShift != 0 {
		a.bytes.free(ref)
		return
	}
	newRef, ok := a.releaseSlot(ref)
	if !ok {
		return
	}
	a.frees.Add(1)
	s := a.slotAt(uint64(newRef >> idxShift))
	for {
		head := a.freeHead.Load()
		s.nextFree.Store(head)
		if a.freeHead.CompareAndSwap(head, uint64(newRef)) {
			return
		}
	}
}

// Get dereferences ref to its payload. In checked mode a generation mismatch
// (use-after-free) is a detected fault.
//
// An unchecked arena's dereference of a published slab is one slab load and
// an address computation, with no call below Get. The index is decoded
// inline rather than through Ref.Index: in instantiations compiled outside
// this package the compiler does not always inline Ref's methods, and each
// one it misses is a call on every traversal step. Checked arenas and
// unallocated slabs take getSlow, which holds the fault reporting.
func (a *Arena[T]) Get(ref Ref) *T {
	if !a.checked {
		index := uint64(ref >> idxShift)
		if sl := a.slabs[index>>slabShift].Load(); sl != nil {
			return &sl.val[index&slabMask]
		}
	}
	return a.getSlow(ref)
}

// getSlow is Get's checked and faulting path. A dereference into an
// unallocated slab reports a fault and returns nil.
func (a *Arena[T]) getSlow(ref Ref) *T {
	ref = ref.Unmarked()
	s := a.slotAt(ref.Index())
	if s.slotMeta == nil {
		return nil
	}
	if a.checked && s.hdr.Gen() != ref.Gen() {
		a.fault(fmt.Sprintf("use-after-free dereference: %v, slot generation %d", ref, s.hdr.Gen()))
	}
	return s.val
}

// Header returns the SMR metadata block for ref. It performs no generation
// check: reclamation schemes legitimately inspect headers of retired (and,
// for the reference-counting baseline, even transiently freed) slots — the
// slots are type-stable by construction.
//
// Like Get, a typed ref with its slab published is decoded with bare shifts
// and one slab load: HE stamps two headers per update and reads one per
// object in every scan. Byte-class refs and unallocated slabs take
// headerSlow.
func (a *Arena[T]) Header(ref Ref) *Header {
	if ref>>classShift == 0 {
		index := uint64(ref >> idxShift)
		if sl := a.slabs[index>>slabShift].Load(); sl != nil {
			return &sl.meta[index&slabMask].hdr
		}
	}
	return a.headerSlow(ref)
}

// headerSlow is Header's byte-class and faulting path.
func (a *Arena[T]) headerSlow(ref Ref) *Header {
	if ref>>classShift != 0 {
		return a.bytes.header(ref)
	}
	return &a.slotAt(uint64(ref >> idxShift)).hdr
}

// CheckAccess is the assertion-mode promotion of the generation and poison
// detectors: it asserts that ref names the live incarnation of its slot and
// that the payload does not carry the poison pattern, reporting a fault
// (regardless of checked mode — the caller opted in by asserting) and
// returning false on violation. Unlike Get it never hands back a payload
// pointer, so harnesses can probe suspect refs without touching freed
// memory; unlike Validate it treats a mismatch as a detected fault rather
// than a benign answer.
func (a *Arena[T]) CheckAccess(ref Ref) bool {
	ref = ref.Unmarked()
	if ref.IsNil() {
		a.fault("access through nil ref")
		return false
	}
	if ref.Class() != 0 {
		return a.bytes.checkAccess(ref)
	}
	s := a.slotAt(ref.Index())
	if s.slotMeta == nil {
		return false
	}
	if s.hdr.Gen() != ref.Gen() {
		a.fault(fmt.Sprintf("access to reclaimed slot: %v, slot generation %d", ref, s.hdr.Gen()))
		return false
	}
	if a.poisonCheck != nil && a.poisonCheck(s.val) {
		a.fault(fmt.Sprintf("poisoned payload behind live ref %v", ref))
		return false
	}
	return true
}

// Validate reports whether ref still names the live incarnation of its slot.
func (a *Arena[T]) Validate(ref Ref) bool {
	ref = ref.Unmarked()
	if ref.IsNil() {
		return false
	}
	if ref.Class() != 0 {
		return a.bytes.validate(ref)
	}
	return a.slotAt(ref.Index()).hdr.Gen() == ref.Gen()
}

// Stats returns a point-in-time snapshot of the arena accounting, folding
// the per-shard stripes into the global counters. The fold doubles as a
// peak observation, so PeakLive can never read below the Live it reports
// alongside.
func (a *Arena[T]) Stats() Stats {
	allocs, frees, reuses := a.allocs.Load(), a.frees.Load(), a.reuses.Load()
	for i := range a.shards {
		sh := &a.shards[i].shardState
		shAllocs := sh.allocs.Load()
		allocs += shAllocs
		frees += sh.frees.Load()
		reuses += shAllocs - sh.fresh.Load()
	}
	if a.bytes != nil {
		for c := 1; c <= NumByteClasses; c++ {
			cs := a.bytes.stats(c)
			allocs += cs.Allocs
			frees += cs.Frees
			reuses += cs.Reuses
		}
	}
	a.peakLive.Observe(allocs - frees)
	return Stats{
		Allocs:   allocs,
		Frees:    frees,
		Reuses:   reuses,
		Live:     allocs - frees,
		PeakLive: a.peakLive.Max(),
		Faults:   a.faults.Load(),
	}
}

// AllocBytesAt allocates a byte payload of n bytes from shard's per-class
// magazine and returns its Ref (class bits set) plus the n-byte payload
// slice, capped at the class capacity so writes past len(p) cannot cross
// into the neighbouring block. Requires WithByteClasses; n must be in
// [0, MaxPayload].
func (a *Arena[T]) AllocBytesAt(shard, n int) (Ref, []byte) {
	if a.bytes == nil {
		a.fault("byte allocation on an arena without WithByteClasses")
		return NilRef, nil
	}
	class := SizeToClass(n)
	if class == 0 {
		a.fault(fmt.Sprintf("byte allocation of %d bytes exceeds MaxPayload %d", n, MaxPayload))
		return NilRef, nil
	}
	ref, p := a.bytes.allocAt(shard, class, n)
	if h := a.allocHook; h != nil && !ref.IsNil() {
		h(shard, ref)
	}
	return ref, p
}

// PutBytesAt allocates a byte payload holding a copy of p.
func (a *Arena[T]) PutBytesAt(shard int, p []byte) Ref {
	ref, dst := a.AllocBytesAt(shard, len(p))
	copy(dst, p)
	return ref
}

// PutStringAt allocates a byte payload holding a copy of s.
func (a *Arena[T]) PutStringAt(shard int, s string) Ref {
	ref, dst := a.AllocBytesAt(shard, len(s))
	copy(dst, s)
	return ref
}

// Bytes dereferences a byte-class ref to its logical payload (length as
// allocated, capacity capped at the class size). In checked mode a
// generation mismatch is a detected fault, exactly like Get.
func (a *Arena[T]) Bytes(ref Ref) []byte {
	if ref>>classShift == 0 {
		a.fault(fmt.Sprintf("Bytes on non-byte ref %v", ref))
		return nil
	}
	return a.bytes.bytes(ref)
}

// RefBytes returns the memory footprint of the block ref names: header plus
// full class extent for byte refs, SlotBytes for typed refs. Reclamation
// uses it for class-aware pending-bytes accounting.
func (a *Arena[T]) RefBytes(ref Ref) uintptr {
	if c := int(ref >> classShift); c != 0 {
		return slotHdrBytes + uintptr(ClassSize(c))
	}
	return a.SlotBytes()
}

// ClassFootprints returns the per-class block footprint table, indexed by
// class id (index 0 is the typed slot class), or nil when the arena has no
// byte classes — every ref then weighs exactly SlotBytes and reclamation
// keeps its zero-cost uniform accounting instead of per-ref class lookups.
func (a *Arena[T]) ClassFootprints() []uintptr {
	if a.bytes == nil {
		return nil
	}
	fp := make([]uintptr, NumClasses)
	fp[0] = a.SlotBytes()
	for c := 1; c <= NumByteClasses; c++ {
		fp[c] = slotHdrBytes + uintptr(ClassSize(c))
	}
	return fp
}

// ClassStats snapshots per-size-class accounting: entry 0 is the typed slot
// class, entries 1..NumByteClasses the byte ladder (empty unless
// WithByteClasses). The observability layer exports these as
// smr_arena_class_* series.
func (a *Arena[T]) ClassStats() []ClassStat {
	allocs, frees, reuses := a.allocs.Load(), a.frees.Load(), a.reuses.Load()
	for i := range a.shards {
		sh := &a.shards[i].shardState
		shAllocs := sh.allocs.Load()
		allocs += shAllocs
		frees += sh.frees.Load()
		reuses += shAllocs - sh.fresh.Load()
	}
	slabs := int64(0)
	for i := range a.slabs {
		if a.slabs[i].Load() != nil {
			slabs++
		}
	}
	out := []ClassStat{{
		Class:     0,
		Size:      int(unsafe.Sizeof(*new(T))),
		Footprint: int64(a.SlotBytes()),
		Allocs:    allocs,
		Frees:     frees,
		Reuses:    reuses,
		Live:      allocs - frees,
		Slabs:     slabs,
		Capacity:  slabs * slabSize,
	}}
	if a.bytes != nil {
		for c := 1; c <= NumByteClasses; c++ {
			out = append(out, a.bytes.stats(c))
		}
	}
	return out
}
