// Package ebr implements classic epoch-based reclamation (K. Fraser,
// "Practical lock-freedom", 2004) — the quiescence-based baseline the
// Hazard Eras paper contrasts itself with in §1, §5 and Appendix A.
//
// Readers announce the global epoch on entering an operation and mark
// themselves quiescent on exit. A retired object is stamped with the epoch
// of its retirement and may be freed once the global epoch has advanced two
// steps past that stamp — which can only happen after every thread active at
// the retirement epoch has passed through a quiescent state.
//
// The defining weakness the paper exploits (Fig. 5): a single stalled reader
// pins the global epoch forever, so the limbo lists grow without bound —
// reclamation is *blocking* even though readers are wait-free population
// oblivious. The stalled-reader experiments in this repository demonstrate
// exactly that behaviour against HE's bounded pending set.
//
// A session's epoch announcement is the single word of its registry slot;
// the advance check walks the slot-block chain. A session registered after
// an epoch-advance walk started announces the current (already advanced or
// advancing) epoch — the publication of its block is seq-cst-ordered after
// the unlinks its announcement could otherwise have pinned, so missing it
// is safe (see reclaim/handle.go).
package ebr

import (
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
)

// Reader announcement encoding: epoch<<1 | activeBit. A quiescent session
// publishes 0.
const activeBit = 1

// gracePeriods is the number of epoch advances after which a retired object
// is provably unreachable (the classic 2-epoch rule: retirement epoch e is
// safe at global epoch >= e+2).
const gracePeriods = 2

// Domain is the epoch-based reclamation domain.
type Domain struct {
	reclaim.Base

	// Leading pad: keep the epoch clock off the line holding the embedded
	// Base's trailing fields (PaddedUint64 pads only after).
	_           atomicx.CacheLinePad
	globalEpoch atomicx.PaddedUint64
}

var _ reclaim.Domain = (*Domain)(nil)

// New constructs an EBR domain over the given allocator.
func New(alloc reclaim.Allocator, cfg reclaim.Config) *Domain {
	d := &Domain{Base: reclaim.NewBase(alloc, cfg, 1, 0)}
	d.Base.Dom = d
	d.globalEpoch.Store(gracePeriods) // start high enough that epoch-0 math never underflows
	// Era view for the observability layer: an active announcement pins the
	// epoch it carries; quiescent sessions (word 0) pin nothing.
	d.SetObsEraView(d.globalEpoch.Load, func(words []atomicx.PaddedUint64) (uint64, bool) {
		w := words[0].Load()
		return w >> 1, w&activeBit != 0
	})
	return d
}

// Name implements reclaim.Domain.
func (d *Domain) Name() string { return "EBR" }

// OnAlloc implements reclaim.Domain; EBR needs no birth stamp.
func (d *Domain) OnAlloc(ref mem.Ref) { d.TraceAlloc(ref, 0) }

// BeginOp announces the current global epoch and marks the session active.
// This is the only reader-side synchronization: one load and one store per
// *operation* (not per node), the "minor" synchronization row of Table 1.
func (d *Domain) BeginOp(h *reclaim.Handle) {
	e := d.globalEpoch.Load()
	// The window this gate exposes: the epoch is read but the activity
	// announcement that pins it is not yet published.
	schedtest.Point(schedtest.PointProtect)
	h.Words[0].Store(e<<1 | activeBit)
}

// EndOp marks the session quiescent.
func (d *Domain) EndOp(h *reclaim.Handle) {
	h.Words[0].Store(0)
}

// Protect under EBR is a plain load: the epoch announcement already protects
// everything reachable during the operation.
func (d *Domain) Protect(h *reclaim.Handle, index int, src *atomic.Uint64) mem.Ref {
	h.InsVisit()
	h.InsLoad()
	return mem.Ref(src.Load())
}

// Retire stamps the object with the current epoch, tries to advance the
// epoch, and frees whatever has aged past the grace period. The attempt to
// advance fails — and the limbo list therefore only grows — whenever any
// thread is still active in an older epoch. That wait is what makes EBR
// blocking for reclaimers.
func (d *Domain) Retire(h *reclaim.Handle, ref mem.Ref) {
	ref = ref.Unmarked()
	e := d.globalEpoch.Load()
	d.Alloc.Header(ref).RetireEra = e
	h.PushRetired(ref)
	d.tryAdvance(e)
	if h.ScanDue() {
		d.scan(h)
	}
}

// tryAdvance bumps the global epoch iff every active session has announced
// the current epoch. The walk covers every session ever registered;
// quiescent and free slots announce 0 and cannot block the advance.
func (d *Domain) tryAdvance(observed uint64) {
	walk := d.Sessions()
	for slots := walk.Next(); slots != nil; slots = walk.Next() {
		for i := range slots {
			a := slots[i].Word(0).Load()
			if a&activeBit != 0 && a>>1 != observed {
				return // a straggler pins the epoch
			}
		}
	}
	// CAS so concurrent retirers advance at most once per observation.
	schedtest.Point(schedtest.PointEra)
	d.globalEpoch.CompareAndSwap(observed, observed+1)
}

// Scan runs one reclamation pass over the session's retired list regardless
// of the threshold — the ScanNow escape hatch, and the entry point the
// background reclamation pipeline dispatches through.
func (d *Domain) Scan(h *reclaim.Handle) { d.scan(h) }

// scan frees every retired object that has aged at least gracePeriods
// epochs.
func (d *Domain) scan(h *reclaim.Handle) {
	h.NoteScan()
	defer h.NoteScanEnd()
	h.AdoptOrphans()
	e := d.globalEpoch.Load()
	h.ReclaimUnprotected(func(obj mem.Ref) bool {
		return d.Alloc.Header(obj).RetireEra+gracePeriods > e
	})
}

// Unregister drains the departing session before recycling its slot: its
// epoch announcement is withdrawn (a stale active announcement would pin
// the epoch forever), a final advance+scan reclaims what has aged out, and
// the not-yet-aged remainder moves to the shared orphan pool for the next
// scanning session to adopt.
func (d *Domain) Unregister(h *reclaim.Handle) {
	h.Words[0].Store(0)
	d.tryAdvance(d.globalEpoch.Load())
	d.scan(h)
	h.Abandon()
	d.Base.Unregister(h)
}

// Drain implements reclaim.Domain.
func (d *Domain) Drain() { d.DrainAll() }

// Stats implements reclaim.Domain.
func (d *Domain) Stats() reclaim.Stats {
	s := d.BaseStats()
	s.EraClock = d.globalEpoch.Load()
	return s
}
