// Package ibr implements 2GE interval-based reclamation (H. Wen,
// J. Izraelevitz, W. Cai, H. A. Beadle, M. L. Scott, "Interval-Based Memory
// Reclamation", PPoPP 2018) — the direct follow-on that Hazard Eras
// inspired, included here to complete the lineage the paper started.
//
// Where Hazard Eras publishes one era per protection index, IBR publishes a
// single [lower, upper] era interval per session and per operation: BeginOp
// seeds both bounds with the current era, and every dereference that
// observes a newer era extends only the upper bound (the same
// load/validate/republish loop as HE's get_protected, against one cell).
// Retirement stamps birth/retire eras exactly as in HE; an object may be
// freed once no session's interval intersects its lifetime.
//
// The trade-off sits between EBR and HE, exactly as the IBR paper
// positions it:
//
//   - reader cost: like HE's fast path (2 loads per node), but at most one
//     republication store per era change per OPERATION, not per protection
//     index;
//   - robustness: a stalled reader pins only objects whose lifetime
//     intersects its (bounded) interval — objects born after its upper
//     bound reclaim freely, so reclamation stays non-blocking, unlike EBR;
//   - memory: pins a superset of what HE pins (whole-interval overlap,
//     like HE's §3.4 min/max mode), still finite by the Equation-1
//     argument.
//
// A session's published interval is the two words of its registry slot
// (Words[0]=lower, Words[1]=upper); its owner-only mirror lives in
// h.Lo/h.Hi. Scans walk the slot-block chain.
package ibr

import (
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
)

// inactive marks a session with no open operation (era 0 is never issued;
// the clock starts at 1).
const inactive = 0

// Domain is the 2GE-IBR reclamation domain.
type Domain struct {
	reclaim.Base

	// Leading pad: keep the per-retire clock off the line holding the
	// embedded Base's trailing fields (PaddedUint64 pads only after).
	_        atomicx.CacheLinePad
	eraClock atomicx.PaddedUint64

	advanceEvery uint64
}

var _ reclaim.Domain = (*Domain)(nil)

// Option configures the domain.
type Option func(*Domain)

// WithAdvanceEvery sets the epoch-advance frequency (the IBR paper's epoch
// frequency parameter): the clock advances on every k-th Retire per session.
func WithAdvanceEvery(k int) Option {
	return func(d *Domain) {
		if k > 1 {
			d.advanceEvery = uint64(k)
		}
	}
}

// New constructs a 2GE-IBR domain over the given allocator.
func New(alloc reclaim.Allocator, cfg reclaim.Config, opts ...Option) *Domain {
	d := &Domain{
		Base:         reclaim.NewBase(alloc, cfg, 2, inactive),
		advanceEvery: 1,
	}
	d.Base.Dom = d
	d.eraClock.Store(1)
	for _, o := range opts {
		o(d)
	}
	// Era view for the observability layer: the interval's lower bound is
	// the oldest era the session pins; inactive sessions publish 0.
	d.SetObsEraView(d.Era, func(words []atomicx.PaddedUint64) (uint64, bool) {
		lo := words[0].Load()
		return lo, lo != inactive
	})
	return d
}

// Name implements reclaim.Domain.
func (d *Domain) Name() string { return "IBR" }

// Era returns the current global era.
func (d *Domain) Era() uint64 { return d.eraClock.Load() }

// OnAlloc stamps the birth era (identical to Hazard Eras).
func (d *Domain) OnAlloc(ref mem.Ref) {
	e := d.eraClock.Load()
	d.Alloc.Header(ref).BirthEra = e
	d.TraceAlloc(ref, e)
}

// BeginOp opens the interval: both bounds seeded with the current era.
func (d *Domain) BeginOp(h *reclaim.Handle) {
	e := d.eraClock.Load()
	// The window this gate exposes: the era is read but the interval that
	// pins it is not yet published (and the two bound stores can tear).
	schedtest.Point(schedtest.PointProtect)
	h.Lo, h.Hi = e, e
	h.Words[0].Store(e)
	h.Words[1].Store(e)
}

// EndOp closes the interval.
func (d *Domain) EndOp(h *reclaim.Handle) {
	if h.Lo != inactive {
		h.Lo, h.Hi = inactive, inactive
		h.Words[0].Store(inactive)
		h.Words[1].Store(inactive)
	}
}

// Protect loads *src under the interval: if the era advanced since the
// interval's upper bound, extend the bound and reload — HE's Algorithm-2
// loop against a single per-session cell. The index argument is ignored
// (one interval covers every pointer the operation holds), which is the
// defining difference from HP/HE. A nil link comes back straight after its
// load, with no clock load and the interval as it was: it cannot be
// dereferenced, so it needs no era (HE's and HP's Protect do the same).
func (d *Domain) Protect(h *reclaim.Handle, index int, src *atomic.Uint64) mem.Ref {
	h.InsVisit()
	for {
		ptr := mem.Ref(src.Load())
		h.InsLoad()
		if ptr.IsNil() {
			return ptr
		}
		// The window this gate exposes: the reference is read but the
		// interval's upper bound does not yet cover its era.
		schedtest.Point(schedtest.PointProtect)
		era := d.eraClock.Load()
		h.InsLoad()
		if era == h.Hi {
			return ptr
		}
		h.Hi = era
		h.Words[1].Store(era)
		h.InsStore()
	}
}

// Retire stamps the death era, advances the clock per the epoch frequency,
// and scans once the session's retires since its last scan reach the
// trigger (ScanR·issued·Slots by default; see reclaim.Config.ScanR) —
// identical structure to HE's Algorithm 3.
func (d *Domain) Retire(h *reclaim.Handle, ref mem.Ref) {
	ref = ref.Unmarked()
	currEra := d.eraClock.Load()
	d.Alloc.Header(ref).RetireEra = currEra
	h.PushRetired(ref)

	h.RetireCount++
	if h.RetireCount%d.advanceEvery == 0 && d.eraClock.Load() == currEra {
		schedtest.Point(schedtest.PointEra)
		d.eraClock.Add(1)
	}
	if h.ScanDue() {
		d.scan(h)
	}
}

// Scan runs one reclamation pass over the session's retired list; Retire
// calls it at the scan threshold, and it is exported as the ScanNow escape
// hatch for harness teardown and tests.
func (d *Domain) Scan(h *reclaim.Handle) { d.scan(h) }

// scan frees every retired object whose lifetime no published interval
// intersects. The published intervals are snapshotted once into the
// session's reusable scratch buffer (sorted by lower bound, prefix-max
// upper), so each retired object is tested with a binary search instead of
// re-reading all interval cells; the per-object condition is exactly
// protected()'s. The walk covers every session ever registered; inactive
// slots publish 0 and are skipped by value.
func (d *Domain) scan(h *reclaim.Handle) {
	h.NoteScan()
	defer h.NoteScanEnd()
	h.AdoptOrphans()
	if len(h.Retired()) == 0 {
		return
	}
	snap := h.IntervalScratch()
	snap.Begin()
	walk := d.Sessions()
	for slots := walk.Next(); slots != nil; slots = walk.Next() {
		schedtest.Point(schedtest.PointScan)
		for t := range slots {
			w := slots[t].Words()
			lo := w[0].Load()
			if lo == inactive {
				continue
			}
			hi := w[1].Load()
			if hi < lo {
				// Between the two publication stores of BeginOp a scanner can
				// see a fresh lower with a stale upper; treat it as [lo, lo] —
				// conservative either way.
				hi = lo
			}
			snap.Add(lo, hi)
		}
	}
	snap.Seal()
	h.ReclaimUnprotected(func(obj mem.Ref) bool {
		hdr := d.Alloc.Header(obj)
		return snap.Intersects(hdr.BirthEra, hdr.RetireEra)
	})
}

// Unregister drains the departing session before recycling its slot: the
// published interval is closed, a final scan reclaims everything now
// unprotected, and survivors (pinned by other sessions' intervals) move to
// the shared orphan pool for the next scanning session to adopt.
func (d *Domain) Unregister(h *reclaim.Handle) {
	d.EndOp(h)
	d.scan(h)
	h.Abandon()
	d.Base.Unregister(h)
}

// protected reports whether any session's interval [lo, hi] intersects the
// object's lifetime [birth, retire].
func (d *Domain) protected(obj mem.Ref) bool {
	hdr := d.Alloc.Header(obj)
	birth, retire := hdr.BirthEra, hdr.RetireEra
	walk := d.Sessions()
	for slots := walk.Next(); slots != nil; slots = walk.Next() {
		for t := range slots {
			w := slots[t].Words()
			lo := w[0].Load()
			if lo == inactive {
				continue
			}
			hi := w[1].Load()
			if hi < lo {
				// Between the two publication stores of BeginOp a scanner can
				// see a fresh lower with a stale upper; treat it as [lo, lo]
				// extended to lo — conservative either way.
				hi = lo
			}
			// Interval intersection with the lifetime.
			if lo <= retire && birth <= hi {
				return true
			}
		}
	}
	return false
}

// Drain implements reclaim.Domain.
func (d *Domain) Drain() { d.DrainAll() }

// Stats implements reclaim.Domain.
func (d *Domain) Stats() reclaim.Stats {
	s := d.BaseStats()
	s.EraClock = d.eraClock.Load()
	return s
}
