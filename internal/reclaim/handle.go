package reclaim

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/schedtest"
)

// This file implements the session layer: the dynamically growing slot
// registry (chained, atomically published SlotBlocks) and the Handle that
// caches every per-session pointer the hot paths need.
//
// # Growth protocol and why scans stay correct
//
// The registry starts with one block of Config.MaxThreads slots (the
// *initial* capacity). When Register finds neither a free slot nor room in
// the tail block, it allocates a new block — sized to double the total slot
// count — fully initializes every published cell to the scheme's idle
// sentinel (initWord), and only then publishes it with a single seq-cst
// store of the previous tail's next pointer. Register then stores the
// issued count, the number of slot ids handed out so far (seq-cst, under
// the registry lock), and only then returns. A recycled slot keeps its id,
// which is already below the count, so reuse leaves the count alone.
//
// Scans, epoch advances and grace-period waits walk the registry through
// Base.Sessions: one seq-cst load of the issued count n, then seq-cst loads
// of the next pointers, visiting slots [0, n) and nothing beyond. The walk
// never finds the chain shorter than n: the block holding id n-1 was
// published before the count store that the load read, so every later
// next-pointer load sees it.
//
// A walk that misses a slot s (id at or past the loaded n) is still safe,
// for every scheme, by one shared argument: the session owning s cannot
// act before its Register returns, and Register stores a count above s's
// id before returning. The count only grows, so the walk's load, which
// read n, precedes that store in the seq-cst total order. So *every*
// memory operation of that session — era/hazard/epoch/version publication
// and, crucially, every load of the data structure — is later than the
// walk's count load, and therefore later than the unlink that preceded the
// retirement being scanned. A reader that started after an object was
// unlinked cannot reach the object (for HP it fails validation; for HE/IBR
// it cannot load a reference at all; for EBR/URCU it is the standard
// new-reader argument), so failing to observe its slot cannot free anything
// it holds. The same argument covers a block the walk would have found
// unpublished: its slots' ids are all at or past n.
//
// The count is loaded before the chain, not during or after it, because
// only a count loaded first is a bound the chain is sure to reach: the
// blocks holding every id below it were published before the store the
// load read. The walk therefore ends on the count alone, with no nil
// check, and never loads the next pointer past the block where the prefix
// ends. (The safety argument above needs only that the load follows the
// unlink, which every load of a scan does.) Idle and free slots below the
// count hold initWord in every cell, so scans skip them by value — there
// is no in-use flag to race on.

// retiredListState is the owner-session-only reclamation state: the retired
// list itself plus the scratch snapshot buffers reused by every scan pass
// (so a scan allocates nothing in steady state).
type retiredListState struct {
	refs  []mem.Ref
	spare []mem.Ref // collects the to-free partition during a scan pass
	eras  EraSnapshot
	ivals IntervalSnapshot
}

// retiredList pads retiredListState out to a whole number of cache lines so
// neighbouring sessions' list headers never share a line. The pad length is
// computed from unsafe.Sizeof, so adding a field to the state struct can
// never silently unbalance it.
type retiredList struct {
	retiredListState
	_ [(atomicx.CacheLineSize - unsafe.Sizeof(retiredListState{})%atomicx.CacheLineSize) % atomicx.CacheLineSize]byte
}

// Slot is one session's registry entry: the published cells every scan
// reads (hazard eras for HE, hazard pointers for HP, the epoch announcement
// for EBR, the [lower, upper] interval for IBR, the reader version for
// URCU) plus the owner-only retired list. Slots are created by growth,
// never destroyed; Unregister resets the published cells to the scheme's
// idle sentinel and recycles the Slot through the free list.
type Slot struct {
	id    int
	words []atomicx.PaddedUint64
	rl    retiredList
}

// ID returns the session id this slot was created with. Ids are dense,
// stable for the slot's lifetime, and double as the arena shard id.
func (s *Slot) ID() int { return s.id }

// Word returns the i-th published cell.
func (s *Slot) Word(i int) *atomicx.PaddedUint64 { return &s.words[i] }

// Words returns the slot's published cells for scan loops.
func (s *Slot) Words() []atomicx.PaddedUint64 { return s.words }

// SlotBlock is one link of the registry chain. The slots slice is immutable
// after the block is published; only the next pointer is ever written.
type SlotBlock struct {
	slots []Slot
	next  atomic.Pointer[SlotBlock]
}

// SlotWalk visits the slots of the session ids below the issued count
// loaded when Base.Sessions opened it, one block's run at a time:
//
//	walk := d.Sessions()
//	for slots := walk.Next(); slots != nil; slots = walk.Next() { ... }
type SlotWalk struct {
	blk  *SlotBlock
	left int // slots of the prefix not yet returned
}

// Next returns the next block's slots, trimmed to the walk's prefix, or nil
// once the prefix is exhausted. The next pointer past the block that ends
// the prefix is never loaded.
func (w *SlotWalk) Next() []Slot {
	if w.left <= 0 {
		return nil
	}
	slots := w.blk.slots
	if len(slots) > w.left {
		slots = slots[:w.left]
	}
	w.left -= len(slots)
	if w.left > 0 {
		w.blk = w.blk.next.Load()
	}
	return slots
}

// Shorten makes the walk stop n slots early. It exists for kill-check
// defects (core.MutShortScan) that prove a walk missing the last session
// is caught; no correct walk calls it.
func (w *SlotWalk) Shorten(n int) { w.left -= n }

// Handle is a registered SMR session. It owns a Slot and caches direct
// pointers to everything the per-operation hot paths touch — the published
// cells, the retired list, the statistics stripes and the probe — so
// Protect/Retire/BeginOp perform no registry indexing of any kind.
//
// The exported scratch fields (Held, Lo, Hi, RetireCount) are owner-only
// storage that the scheme packages interpret; reclaim itself never reads
// them. Hazard Eras keeps its per-index held eras in Held and its
// min/max-mode envelope in Lo/Hi; IBR keeps its interval mirror in Lo/Hi;
// reference counting keeps held refs in Held. They are reset on Register.
type Handle struct {
	dom  Domain
	base *Base
	slot *Slot

	// Words aliases the slot's published cells (Words[i] is the paper's
	// he[tid][i]); scheme Protect implementations store through it.
	Words []atomicx.PaddedUint64

	// Held is per-protection-index owner-only state: held eras for HE,
	// held refs (as raw uint64) for RC. len == Config.Slots.
	Held []uint64
	// Lo, Hi are the owner-only mirror of a published [min, max] pair
	// (HE min/max mode, IBR interval).
	Lo, Hi uint64
	// RetireCount counts Retire calls for k-advance / advance-every-k.
	RetireCount uint64

	// unscanned counts this session's retires since its last scan pass
	// (adopted orphans included); ScanDue compares it with the trigger.
	unscanned int

	retStripe  *atomicx.PaddedInt64
	freeStripe *atomicx.PaddedInt64
	scanStripe *atomicx.PaddedInt64

	// Byte-granular companions (class-aware footprints; see Base.classBytes).
	retBytesStripe  *atomicx.PaddedInt64
	freeBytesStripe *atomicx.PaddedInt64

	// eraClock caches Base.EraClock: non-nil exactly when Protect runs the
	// scheme's Algorithm-2 loop itself.
	eraClock *atomicx.PaddedUint64

	// probe carries every per-session hook (Table-1 counters, flight
	// recorder, scan histogram, lifecycle tracer); nil when the domain
	// has neither an Instrument nor an obs domain attached, so each hook
	// pays one untaken branch.
	probe *probe

	// Wrapper is owner-only storage for a layer wrapping this handle (the
	// public smr package parks its Guard here). Because Release keeps the
	// Handle in the domain pool, the wrapper rides along and the wrapping
	// layer's Acquire path allocates nothing in steady state. reclaim itself
	// never reads it.
	Wrapper any
}

// ID returns the session id (dense; doubles as the arena shard id).
func (h *Handle) ID() int { return h.slot.id }

// Domain returns the domain this session belongs to.
func (h *Handle) Domain() Domain { return h.dom }

// BeginOp opens a read-side critical section on this session.
func (h *Handle) BeginOp() { h.dom.BeginOp(h) }

// EndOp closes the critical section, dropping all protections.
func (h *Handle) EndOp() { h.dom.EndOp(h) }

// Protect loads *src under protection index i (the paper's
// get_protected(tid, i, src) with the tid folded into the session).
//
// For an era scheme (Base.EraClock set) Protect is Algorithm 2 itself, and
// the scheme's Protect calls back into it, so the loop exists once. Each
// iteration loads *src, passes the PointProtect gate, loads the era clock
// and compares it with the era this index already holds. On the fast path
// (the era is unchanged) that is the two seq-cst loads and no store the
// paper counts per node, and no call leaves this function. Only a moved
// clock calls the scheme, to publish the new era before the loop re-reads
// *src. A nil reference returns straight after its load, with no era
// published. Every other scheme is reached by interface dispatch.
//
// A probe, when attached, counts the era loop's visit and loads and gives
// a sampled ref its lifecycle protect event.
func (h *Handle) Protect(index int, src *atomic.Uint64) mem.Ref {
	clock := h.eraClock
	if clock == nil && h.probe == nil {
		// Dispatch returns here, before the loop makes the compiler spill
		// the arguments, and before p is read: a p held in a register at
		// this point is spilled on the dispatch path too.
		return h.dom.Protect(h, index, src)
	}
	p := h.probe
	var ptr mem.Ref
	if clock != nil {
		prevEra := h.Held[index]
		loops, loads := int64(1), int64(0)
		for {
			ptr = mem.Ref(src.Load())
			if ptr.IsNil() {
				// A nil link cannot be dereferenced, so it needs no era:
				// it comes back unpublished, as HP's Protect returns it,
				// and Held and Words keep what this index already holds.
				if p == nil {
					return ptr
				}
				loads = 2*loops - 1 // no clock load on this iteration
				break
			}
			// The window this gate exposes: the reference is read but the
			// era that will protect it is not yet validated/published.
			schedtest.Point(schedtest.PointProtect)
			era := clock.Load()
			if era == prevEra {
				if p == nil {
					return ptr // unwatched: nothing to count
				}
				loads = 2 * loops
				break
			}
			h.base.EraPublish(h, index, era)
			prevEra = era
			loops++
		}
		// Counted once the loop is done, so the loop itself tests nothing
		// but the reference and the era: one visit, and two seq-cst loads
		// per iteration, one for a nil.
		p.insVisit()
		p.insLoads(loads)
	} else {
		ptr = h.dom.Protect(h, index, src)
	}
	if p != nil {
		p.protected(ptr)
	}
	return ptr
}

// Retire declares ref unlinked and due for eventual reclamation.
func (h *Handle) Retire(ref mem.Ref) { h.dom.Retire(h, ref) }

// Release parks the live session in the domain pool for Acquire to reuse.
func (h *Handle) Release() { h.dom.Release(h) }

// Unregister permanently closes the session (final scan + orphan handoff).
func (h *Handle) Unregister() { h.dom.Unregister(h) }

// ---- owner-only retired-list operations (scheme building blocks) --------

// PushRetired appends ref to the session's retired list and bumps its
// retire stripe. The high-water fold happens at scan/stats time, keeping
// this hot path free of shared cache lines. A tracing probe lands the
// retire span event here, so it rides every retire path.
func (h *Handle) PushRetired(ref mem.Ref) {
	schedtest.Point(schedtest.PointRetire)
	rl := &h.slot.rl.retiredListState
	rl.refs = append(rl.refs, ref.Unmarked())
	h.unscanned++
	h.retStripe.Add(1)
	if h.retBytesStripe != nil {
		h.retBytesStripe.Add(h.base.refBytes(ref))
	}
	if p := h.probe; p != nil {
		p.retired(h.base, ref)
	}
}

// NoteRetired updates retirement accounting without touching any retired
// list — for schemes (reference counting) that reclaim inline. It takes the
// retired ref so the byte accounting stays class-aware even without a list.
func (h *Handle) NoteRetired(ref mem.Ref) {
	h.retStripe.Add(1)
	if h.retBytesStripe != nil {
		h.retBytesStripe.Add(h.base.refBytes(ref))
	}
	h.base.observePeak()
	if p := h.probe; p != nil {
		p.retired(h.base, ref)
	}
}

// ScanDue reports whether the session has retired enough objects since its
// last scan pass to run one: ScanR·issued·Slots by default (see
// Config.ScanR), or the SetScanThreshold count, where 1 reproduces
// Algorithm 3's scan on every retire. Schemes call it after PushRetired.
// Survivors a scan leaves on the list do not count, so a reader pinning
// them cannot make every retire scan again.
func (h *Handle) ScanDue() bool {
	b := h.base
	return h.unscanned >= b.scanBatch(int(b.issued.Load()))
}

// Retired returns the session's retired list for in-place scanning. The
// caller owns the slice and must write back the survivor set with
// SetRetired.
func (h *Handle) Retired() []mem.Ref { return h.slot.rl.refs }

// SetRetired replaces the session's retired list after a scan pass.
func (h *Handle) SetRetired(refs []mem.Ref) { h.slot.rl.refs = refs }

// EraScratch returns the session's reusable era-snapshot buffer.
func (h *Handle) EraScratch() *EraSnapshot { return &h.slot.rl.eras }

// IntervalScratch returns the session's reusable interval-snapshot buffer.
func (h *Handle) IntervalScratch() *IntervalSnapshot { return &h.slot.rl.ivals }

// FreeRetired frees ref through the allocator — into the session's arena
// magazine when the allocator is sharded — and bumps the freed stripe.
func (h *Handle) FreeRetired(ref mem.Ref) {
	b := h.base
	schedtest.Point(schedtest.PointFree)
	if g := b.freeGuard; g != nil {
		g(ref)
	}
	if b.sharded != nil {
		b.sharded.FreeAt(h.slot.id, ref)
	} else {
		b.Alloc.Free(ref)
	}
	h.freeStripe.Add(1)
	if h.freeBytesStripe != nil {
		h.freeBytesStripe.Add(b.refBytes(ref))
	}
	if p := h.probe; p != nil {
		p.freed([]mem.Ref{ref})
	}
}

// ReclaimUnprotected runs the free half of a scan pass: it partitions the
// session's retired list with the scheme-supplied predicate, keeps the
// protected survivors in place, and frees the rest as one batch. Batching
// is what keeps the amortized cost low — the allocator folds the whole
// batch into one counter update (FreeBatchAt on sharded allocators) and the
// freed stripe is bumped once per scan, so the per-object cost is the
// predicate plus the slot release, with no atomic counter traffic.
func (h *Handle) ReclaimUnprotected(protected func(ref mem.Ref) bool) {
	st := &h.slot.rl.retiredListState
	keep := st.refs[:0]
	toFree := st.spare[:0]
	var tr *obs.Tracer
	if p := h.probe; p != nil {
		tr = p.trace
	}
	for _, obj := range st.refs {
		if protected(obj) {
			keep = append(keep, obj)
			if tr != nil {
				// A scan pass visited this sampled ref and left it pinned:
				// record the skip so the span shows how many passes it survived.
				if r := uint64(obj); tr.Sampled(r) {
					tr.Event(r, obs.SpanSkip, h.slot.id, 0)
				}
			}
		} else {
			toFree = append(toFree, obj)
		}
	}
	st.refs = keep
	if len(toFree) == 0 {
		return
	}
	b := h.base
	schedtest.Point(schedtest.PointFree)
	if g := b.freeGuard; g != nil {
		for _, ref := range toFree {
			g(ref)
		}
	}
	if b.sharded != nil {
		b.sharded.FreeBatchAt(h.slot.id, toFree)
	} else {
		for _, ref := range toFree {
			b.Alloc.Free(ref)
		}
	}
	h.freeStripe.Add(int64(len(toFree)))
	if h.freeBytesStripe != nil {
		freedBytes := int64(0)
		for _, obj := range toFree {
			freedBytes += h.base.refBytes(obj)
		}
		h.freeBytesStripe.Add(freedBytes)
	}
	if p := h.probe; p != nil {
		p.freed(toFree)
	}
	st.spare = toFree[:0]
}

// TraceHandoff lands a handoff event on a sampled ref's lifecycle span —
// schemes call it when a retired ref changes hands (a Hyaline batch
// distribution). value carries the destination, a receiving-session count.
// One untaken branch when the session has no probe.
func (h *Handle) TraceHandoff(ref mem.Ref, value uint64) {
	if p := h.probe; p != nil && p.trace != nil {
		if r := uint64(ref.Unmarked()); p.trace.Sampled(r) {
			p.trace.Event(r, obs.SpanHandoff, p.id, value)
		}
	}
}

// NoteScan records one reclamation pass over a retired list, restarts the
// ScanDue count and folds the striped counters into the pending high-water
// mark. Scans sample the peak immediately after the pushes that triggered
// them, preserving the PeakPending semantics the scan-per-retire
// implementation had. With
// observability attached it also opens the scan bracket: timestamp and a
// zeroed free count for NoteScanEnd, plus an EvScanStart event carrying
// the candidate count. Scans are amortized-rare, so every one is recorded.
func (h *Handle) NoteScan() {
	h.unscanned = 0
	h.scanStripe.Add(1)
	h.base.observePeak()
	if p := h.probe; p != nil && p.ring != nil {
		p.scanT0 = obs.Now()
		p.scanFreed = 0
		p.ring.Record(obs.EvScanStart, p.id, uint64(len(h.slot.rl.refs)))
	}
}

// NoteScanEnd closes the bracket NoteScan opened: the elapsed time goes to
// the scan-latency histogram and an EvScanEnd event carries the number of
// nodes this session freed during the pass — counted by the probe itself,
// so sessions sharing a freed stripe never leak into each other's count.
// Schemes call it at every exit of their scan routine; it is a single
// untaken branch when the session has no probe.
func (h *Handle) NoteScanEnd() {
	if p := h.probe; p != nil && p.ring != nil {
		p.scan.Record(obs.Now() - p.scanT0)
		p.ring.Record(obs.EvScanEnd, p.id, uint64(p.scanFreed))
	}
}

// Abandon moves the session's remaining retired objects to the shared
// orphan pool. Called by scheme Unregister implementations after a final
// scan, so a departing session's still-protected leftovers are adopted
// (and eventually freed) by whichever session scans next instead of
// leaking.
func (h *Handle) Abandon() {
	h.unscanned = 0
	h.base.abandon(h.slot)
}

// AdoptOrphans moves any abandoned objects into the session's retired list
// so the scan about to run tests them too. The empty-pool fast path is one
// atomic load, so scans pay nothing when no session has unregistered.
func (h *Handle) AdoptOrphans() {
	b := h.base
	if b.orphanLoad.Load() == 0 {
		return
	}
	b.orphanMu.Lock()
	adopted := b.orphans
	b.orphans = nil
	b.orphanLoad.Store(0)
	b.orphanMu.Unlock()
	h.slot.rl.refs = append(h.slot.rl.refs, adopted...)
	h.unscanned += len(adopted) // new to this list: they count as retires
}

// ---- probe hooks (one untaken branch each when the session has no probe) -

// InsVisit records one Protect call (one node visited) by this session.
func (h *Handle) InsVisit() { h.probe.insVisit() }

// InsLoad records one seq-cst atomic load issued by this session.
func (h *Handle) InsLoad() { h.probe.insLoads(1) }

// InsStore records one seq-cst atomic store issued by this session.
func (h *Handle) InsStore() {
	if p := h.probe; p != nil && p.stores != nil {
		p.stores.Add(1)
	}
}

// InsRMW records one atomic read-modify-write issued by this session.
func (h *Handle) InsRMW() {
	if p := h.probe; p != nil && p.rmws != nil {
		p.rmws.Add(1)
	}
}
