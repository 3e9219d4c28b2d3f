// Package core implements Hazard Eras, the memory-reclamation algorithm of
//
//	P. Ramalhete and A. Correia, "Brief Announcement: Hazard Eras —
//	Non-Blocking Memory Reclamation", SPAA 2017.
//
// Hazard Eras combines the low reader-side synchronization of epoch-based
// schemes with the non-blocking progress of Hazard Pointers. Object lifetime
// is tracked against a global monotonic clock (eraClock): an object records
// the era of its birth (newEra) before becoming shared and the era of its
// death (delEra) when retired. Instead of publishing the pointer it is about
// to dereference (as HP does), a reader publishes the *era* it observed —
// and, crucially, republishes only when the era has changed, turning HP's
// per-node seq-cst store into a usually-taken fast path of two seq-cst loads
// (Algorithm 2 of the paper).
//
// This package also implements the two §3.4 extensions:
//
//   - k-advance: the eraClock is advanced only every k-th Retire, trading
//     reclamation latency (k× more pending objects) for fewer reader-side
//     era republications.
//   - min/max publication: a reader using many protection indices (deep
//     tree traversals) publishes only the minimum and maximum of its eras,
//     making the published footprint O(1) instead of O(depth).
//
// Progress (paper §3.2): Protect is lock-free (its loop only retries when
// the eraClock advanced, i.e. another thread made progress); Clear and
// Retire are wait-free bounded; Era is wait-free population oblivious.
//
// Where the paper indexes fixed per-thread arrays with a tid, this
// implementation works on reclaim.Handle sessions: a session's hazard-era
// cells live in its registry slot (h.Words), its owner-only held mirror in
// h.Held, and its min/max envelope in h.Lo/h.Hi, so no per-call indexing
// remains and the registry can grow past the initial capacity.
package core

import (
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
)

// noneEra is the paper's NONE: the value published when a slot protects
// nothing. The eraClock starts at 1, so 0 never names a real era.
const noneEra = 0

// Option configures the Hazard Eras domain.
type Option func(*Eras)

// WithAdvanceEvery sets k-advance (§3.4): the eraClock is advanced only on
// every k-th call to Retire by each session. k=1 is the paper's Algorithm 3.
func WithAdvanceEvery(k int) Option {
	return func(d *Eras) {
		if k > 1 {
			d.advanceEvery = uint64(k)
		}
	}
}

// WithMinMax enables the §3.4 min/max optimization: only the lowest and
// highest currently-held eras are published per session, regardless of how
// many protection indices the data structure uses.
func WithMinMax(on bool) Option {
	return func(d *Eras) { d.minMax = on }
}

// Eras is the Hazard Eras domain (the paper's HazardEras<T> class). Each
// registered session's published hazard eras are the cells of its registry
// slot — the paper's he[tid][i] row, reached through the block chain during
// scans and through the cached h.Words on the reader paths. In min/max mode
// only cells 0 (min) and 1 (max) of each row are published.
type Eras struct {
	reclaim.Base

	// The leading pad gives the clock a cache line of its own: PaddedUint64
	// pads only after its value, so without it the hottest word in the
	// domain (bumped on every retire) would share a line with the embedded
	// Base's trailing fields.
	_        atomicx.CacheLinePad
	eraClock atomicx.PaddedUint64

	advanceEvery uint64
	minMax       bool
	mutation     TestingMutation
}

// TestingMutation selects a deliberately introduced defect for
// cmd/hecheck's mutation kill-check: the harness must detect each of these
// as a safety violation within its bounded schedule budget. Production
// code never sets one.
type TestingMutation int

const (
	// MutNone is the correct algorithm.
	MutNone TestingMutation = iota
	// MutSkipPublish makes publish update only the owner-side Held mirror
	// and skip the seq-cst store of the protection cell: readers believe
	// they are protected while scanners see an idle slot.
	MutSkipPublish
	// MutInvertLifespan inverts scan's protected() predicate: a scan frees
	// exactly the objects whose lifespans ARE covered by published eras.
	MutInvertLifespan
	// MutShortScan stops every HE registry walk one slot before the issued
	// count: the session holding the highest id is never read, so its
	// published eras protect nothing.
	MutShortScan
)

// EnableMutation installs a kill-check defect (construction/setup time
// only). Test-only: it exists so the detection machinery itself can be
// validated against a scheme known to be broken.
func (d *Eras) EnableMutation(m TestingMutation) { d.mutation = m }

var _ reclaim.Domain = (*Eras)(nil)

// New constructs a Hazard Eras domain over the given allocator.
func New(alloc reclaim.Allocator, cfg reclaim.Config, opts ...Option) *Eras {
	d := &Eras{advanceEvery: 1}
	for _, o := range opts {
		o(d)
	}
	cfg = cfg.Defaulted()
	if d.minMax && cfg.Slots < 2 {
		// Min/max mode publishes a [min, max] pair, so it needs two cells
		// per session even when the structure asked for a single protection
		// index; the extra slot is simply never indexed.
		cfg.Slots = 2
	}
	d.Base = reclaim.NewBase(alloc, cfg, cfg.Slots, noneEra)
	d.Base.Dom = d
	// Handle.Protect runs Algorithm 2 on the clock and calls publish only
	// when the era moved.
	d.Base.EraClock, d.Base.EraPublish = &d.eraClock, d.publish
	d.eraClock.Store(1) // paper: eraClock = {1}
	// Era view for the observability layer: a session's pinned era is the
	// minimum over its published cells ([min, max] pair or per-index eras).
	d.SetObsEraView(d.Era, func(words []atomicx.PaddedUint64) (uint64, bool) {
		var low uint64
		for i := range words {
			if e := words[i].Load(); e != noneEra && (low == noneEra || e < low) {
				low = e
			}
		}
		return low, low != noneEra
	})
	return d
}

// Name implements reclaim.Domain.
func (d *Eras) Name() string {
	if d.minMax {
		return "HE-minmax"
	}
	return "HE"
}

// Era returns the current value of the global era clock (the paper's
// getEra()). Its value is what OnAlloc stamps into a new object's BirthEra.
func (d *Eras) Era() uint64 { return d.eraClock.Load() }

// OnAlloc stamps the birth era of a freshly allocated, not-yet-shared
// object. The paper requires this before the object is inserted into the
// data structure ("which can be easily done in the constructor of T").
func (d *Eras) OnAlloc(ref mem.Ref) {
	e := d.eraClock.Load()
	d.Alloc.Header(ref).BirthEra = e
	d.TraceAlloc(ref, e)
}

// BeginOp implements reclaim.Domain; pointer-based schemes need no
// per-operation entry protocol.
func (d *Eras) BeginOp(h *reclaim.Handle) {}

// EndOp clears all protection indices (the paper's clear()).
func (d *Eras) EndOp(h *reclaim.Handle) { d.Clear(h) }

// Clear resets every hazard era of the session to NONE. Wait-free bounded.
func (d *Eras) Clear(h *reclaim.Handle) {
	if d.minMax {
		if h.Lo != noneEra {
			h.Words[0].Store(noneEra)
			if len(h.Words) > 1 {
				h.Words[1].Store(noneEra)
			}
			h.Lo, h.Hi = noneEra, noneEra
		}
	} else {
		for i := range h.Held {
			if h.Held[i] != noneEra {
				h.Words[i].Store(noneEra)
			}
		}
	}
	for i := range h.Held {
		h.Held[i] = noneEra
	}
}

// Protect is the paper's get_protected() (Algorithm 2). It loads *src and
// publishes the era that was current when the reference was read, looping
// until the eraClock is observed unchanged across the read. On the fast
// path (era unchanged since this index's last publication) it issues two
// seq-cst loads and no store — the mechanism behind the paper's headline
// throughput gain over Hazard Pointers. The loop lives in Handle.Protect,
// which runs it on the session without dispatching here and calls publish
// when the era moved; this method is the same loop reached through the
// reclaim.Domain interface.
func (d *Eras) Protect(h *reclaim.Handle, index int, src *atomic.Uint64) mem.Ref {
	return h.Protect(index, src)
}

// publish records era in the session-local slot mirror and pushes the
// published view: the cell itself in standard mode, or the maintained
// min/max pair in min/max mode. The min/max update is O(1): the era clock
// is monotone, so a fresh era can only raise the max (or seed both); the
// minimum only ever moves down to a newly observed smaller value, and a
// slot overwrite that removes the old minimum simply leaves h.Lo
// conservatively low until Clear.
func (d *Eras) publish(h *reclaim.Handle, index int, era uint64) {
	h.Held[index] = era
	if d.mutation == MutSkipPublish {
		// Kill-check defect: the owner-side mirror advances, the published
		// cell does not — Protect's fast path now returns references no
		// scan will ever see as protected.
		return
	}
	if !d.minMax {
		h.Words[index].Store(era)
		h.InsStore()
		return
	}
	if h.Lo == noneEra {
		h.Lo, h.Hi = era, era
		h.Words[0].Store(era)
		h.InsStore()
		if len(h.Words) > 1 {
			h.Words[1].Store(era)
			h.InsStore()
		}
		return
	}
	if era < h.Lo {
		h.Lo = era
		h.Words[0].Store(era)
		h.InsStore()
	}
	if era > h.Hi {
		h.Hi = era
		if len(h.Words) > 1 {
			h.Words[1].Store(era)
			h.InsStore()
		}
	}
}

// Retire is the paper's retire() (Algorithm 3): stamp delEra, append to the
// calling session's retired list, advance the eraClock (every k-th call
// under k-advance) if no other thread already advanced it, then — once the
// session's retires since its last scan reach the trigger (ScanR·H with
// H = issued·Slots by default, see reclaim.Config.ScanR; every retire, as
// in the paper, under SetScanThreshold(1)) — scan the retired list freeing
// every object whose lifetime no eras-in-use overlap. Wait-free bounded: no
// retries, and the retired list is bounded by Equation 1 of the paper plus
// the ScanR·H retires not yet scanned.
func (d *Eras) Retire(h *reclaim.Handle, ref mem.Ref) {
	ref = ref.Unmarked()
	currEra := d.eraClock.Load()
	d.Alloc.Header(ref).RetireEra = currEra
	h.PushRetired(ref)

	h.RetireCount++
	if h.RetireCount%d.advanceEvery == 0 && d.eraClock.Load() == currEra {
		schedtest.Point(schedtest.PointEra)
		// Benign race, exactly as the paper's line 51: two threads may both
		// advance, which only makes eras pass faster.
		h.ObsEra(d.eraClock.Add(1))
	}
	if h.ScanDue() && !h.TryOffload() {
		d.scan(h)
	}
}

// Scan runs one reclamation pass over the session's retired list, freeing
// every object not protected by any published era. Retire calls it at the
// scan threshold; it is exported as the ScanNow escape hatch for callers
// that want reclamation before the threshold (harness teardown, tests,
// memory pressure).
func (d *Eras) Scan(h *reclaim.Handle) { d.scan(h) }

// scan frees every retired object not protected by any published era. The
// published-era cells of every registered session's slot are snapshotted
// once into the session's reusable scratch buffer and sorted, so each
// retired object is tested with a binary search instead of re-reading the
// whole registry (see reclaim/snapshot.go); the per-object condition is
// exactly protected()'s. The walk stops at the sessions ever registered;
// idle and free slots below that publish noneEra and are skipped by
// value; sessions registered after the walk started cannot hold the
// objects scanned here (see handle.go).
func (d *Eras) scan(h *reclaim.Handle) {
	h.NoteScan()
	defer h.NoteScanEnd()
	h.AdoptOrphans()
	if len(h.Retired()) == 0 {
		return
	}
	if d.minMax {
		// Snapshot each session's published [min, max] envelope. The
		// three-clause §3.4 condition in protected() is exactly interval
		// intersection — (lo <= birth <= hi) or (lo <= retire <= hi) or
		// enclosure all reduce to lo <= retire && birth <= hi — and a
		// torn read that yields hi < lo (fresh min beside a stale max)
		// only ever satisfies the enclosure clause, which is the
		// intersection test for the normalized [hi, lo]. So normalizing
		// preserves the semantics exactly.
		snap := h.IntervalScratch()
		snap.Begin()
		walk := d.sessions()
		for slots := walk.Next(); slots != nil; slots = walk.Next() {
			schedtest.Point(schedtest.PointScan)
			for t := range slots {
				w := slots[t].Words()
				lo := w[0].Load()
				if lo == noneEra {
					continue
				}
				hi := lo
				if x := w[1].Load(); x != noneEra {
					hi = x
				}
				if hi < lo {
					lo, hi = hi, lo
				}
				snap.Add(lo, hi)
			}
		}
		snap.Seal()
		h.ReclaimUnprotected(d.mutated(func(obj mem.Ref) bool {
			hdr := d.Alloc.Header(obj)
			return snap.Intersects(hdr.BirthEra, hdr.RetireEra)
		}))
		return
	}
	snap := h.EraScratch()
	snap.Begin()
	walk := d.sessions()
	for slots := walk.Next(); slots != nil; slots = walk.Next() {
		schedtest.Point(schedtest.PointScan)
		for t := range slots {
			w := slots[t].Words()
			for i := range w {
				if era := w[i].Load(); era != noneEra {
					snap.Add(era)
				}
			}
		}
	}
	snap.Seal()
	h.ReclaimUnprotected(d.mutated(func(obj mem.Ref) bool {
		hdr := d.Alloc.Header(obj)
		return snap.CoversRange(hdr.BirthEra, hdr.RetireEra)
	}))
}

// sessions opens the registry walk of every HE scan and of protected().
// The MutShortScan kill-check defect stops it one slot short.
func (d *Eras) sessions() reclaim.SlotWalk {
	w := d.Sessions()
	if d.mutation == MutShortScan {
		w.Shorten(1)
	}
	return w
}

// mutated wraps a scan's protected() predicate with the MutInvertLifespan
// kill-check defect when it is enabled; otherwise the predicate is
// returned untouched.
func (d *Eras) mutated(protected func(mem.Ref) bool) func(mem.Ref) bool {
	if d.mutation != MutInvertLifespan {
		return protected
	}
	return func(obj mem.Ref) bool { return !protected(obj) }
}

// protected reports whether any session has published an era within
// [BirthEra, RetireEra] of obj — the paper's lines 57-63, or the §3.4
// min/max condition when that mode is active.
func (d *Eras) protected(obj mem.Ref) bool {
	hdr := d.Alloc.Header(obj)
	birth, retire := hdr.BirthEra, hdr.RetireEra
	walk := d.sessions()
	for slots := walk.Next(); slots != nil; slots = walk.Next() {
		for t := range slots {
			w := slots[t].Words()
			if d.minMax {
				lo := w[0].Load()
				if lo == noneEra {
					continue
				}
				hi := lo
				if x := w[1].Load(); x != noneEra {
					hi = x
				}
				// §3.4: the object is protected when its birth or retire era
				// falls inside [lo,hi], or its lifetime encloses the range.
				if (lo <= birth && birth <= hi) ||
					(lo <= retire && retire <= hi) ||
					(birth <= lo && retire >= hi) {
					return true
				}
				continue
			}
			for i := range w {
				era := w[i].Load()
				if era == noneEra || era < birth || era > retire {
					continue
				}
				return true
			}
		}
	}
	return false
}

// Unregister drains the departing session before recycling its slot: any
// remaining protections are dropped, a final scan reclaims everything now
// unprotected, and survivors (objects pinned by *other* sessions' eras) are
// handed to the shared orphan pool for the next scanning session to adopt.
// Without this, amortized scanning would strand up to threshold-1 objects
// per departing session.
func (d *Eras) Unregister(h *reclaim.Handle) {
	d.Clear(h)
	d.scan(h)
	h.Abandon()
	d.Base.Unregister(h)
}

// Drain implements reclaim.Domain (the paper's destructor).
func (d *Eras) Drain() { d.DrainAll() }

// Stats implements reclaim.Domain.
func (d *Eras) Stats() reclaim.Stats {
	s := d.BaseStats()
	s.EraClock = d.eraClock.Load()
	return s
}

// SetEraClock force-sets the global clock. It exists solely for the
// Appendix-B overflow test and the deterministic figure scenarios; never
// call it while readers are active.
func (d *Eras) SetEraClock(v uint64) { d.eraClock.Store(v) }
