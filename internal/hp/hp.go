// Package hp implements Hazard Pointers (M. M. Michael, "Hazard Pointers:
// Safe Memory Reclamation for Lock-Free Objects", IEEE TPDS 2004) — the
// baseline the Hazard Eras paper measures itself against and whose API it
// adopts.
//
// Following the paper's evaluation methodology ("For Hazard Pointers we made
// our own implementation, sharing as much code as possible with the Hazard
// Eras implementation, using also a two-dimensional array to store the
// hazard pointers, and thread-local lists to store the retired nodes", §4),
// this implementation shares the reclaim.Base machinery, the padded session
// slot layout and the retired-list handling with internal/core, so
// throughput differences isolate the algorithms. A session's hazard-pointer
// cells are its registry slot's words (h.Words); scans walk the slot-block
// chain, so the registry grows past the initial capacity like every other
// scheme.
//
// Reader-side cost per protected node: one seq-cst load of the source, one
// seq-cst store publishing the hazard pointer, and one seq-cst load to
// validate — the "2 load() + 1 store()" row of the paper's Table 1.
package hp

import (
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
)

// nonePtr marks an empty hazard-pointer slot (mem.NilRef encodes as 0).
const nonePtr = 0

// Option configures the Hazard Pointers domain.
type Option func(*Pointers)

// WithScanThreshold sets the R factor as an absolute count: a session scans
// once it has retired r objects since its last scan. r=1 scans on every
// Retire, the paper's memory-bound setting ("when the R factor is set to
// the lowest setting of 1 ...", §3.1). Without it the domain follows the
// relative rule every scheme shares: a scan per ScanR·issued·Slots retires
// (reclaim.Config.ScanR).
func WithScanThreshold(r int) Option {
	return func(d *Pointers) {
		if r > 0 {
			d.SetScanThreshold(r)
		}
	}
}

// Pointers is the Hazard Pointers domain.
type Pointers struct {
	reclaim.Base
}

var _ reclaim.Domain = (*Pointers)(nil)

// New constructs a Hazard Pointers domain over the given allocator.
func New(alloc reclaim.Allocator, cfg reclaim.Config, opts ...Option) *Pointers {
	cfg = cfg.Defaulted()
	d := &Pointers{
		Base: reclaim.NewBase(alloc, cfg, cfg.Slots, nonePtr),
	}
	d.Base.Dom = d
	for _, o := range opts {
		o(d)
	}
	return d
}

// Name implements reclaim.Domain.
func (d *Pointers) Name() string { return "HP" }

// OnAlloc implements reclaim.Domain; HP needs no birth stamp.
func (d *Pointers) OnAlloc(ref mem.Ref) { d.TraceAlloc(ref, 0) }

// BeginOp implements reclaim.Domain; no per-operation entry protocol.
func (d *Pointers) BeginOp(h *reclaim.Handle) {}

// EndOp clears all hazard pointers of the session.
func (d *Pointers) EndOp(h *reclaim.Handle) { d.Clear(h) }

// Clear resets every hazard pointer of the session.
func (d *Pointers) Clear(h *reclaim.Handle) {
	for i := range h.Words {
		if h.Words[i].Load() != nonePtr {
			h.Words[i].Store(nonePtr)
		}
	}
}

// Protect publishes the unmarked target of *src as a hazard pointer and
// validates that *src has not changed, looping until the publication is
// stable. Lock-free: a retry implies *src changed, i.e. another thread made
// progress.
func (d *Pointers) Protect(h *reclaim.Handle, index int, src *atomic.Uint64) mem.Ref {
	slot := &h.Words[index]
	h.InsVisit()
	for {
		ptr := mem.Ref(src.Load())
		h.InsLoad()
		if ptr.IsNil() {
			// Nothing to protect; leave any prior publication in place (it
			// will be overwritten by the next Protect or by Clear).
			return ptr
		}
		// The window this gate exposes: the reference is read but the
		// hazard that will protect it is not yet published.
		schedtest.Point(schedtest.PointProtect)
		slot.Store(uint64(ptr.Unmarked()))
		h.InsStore()
		if mem.Ref(src.Load()) == ptr {
			h.InsLoad()
			return ptr
		}
		h.InsLoad()
	}
}

// Retire appends ref to the session's retired list and scans it once the R
// threshold is reached. Wait-free bounded: the scan visits every slot of
// every session exactly once.
func (d *Pointers) Retire(h *reclaim.Handle, ref mem.Ref) {
	h.PushRetired(ref)
	if h.ScanDue() {
		d.scan(h)
	}
}

// Scan runs one reclamation pass over the session's retired list regardless
// of the threshold — the ScanNow escape hatch for teardown, tests and
// memory pressure.
func (d *Pointers) Scan(h *reclaim.Handle) { d.scan(h) }

// scan frees every retired object whose unmarked ref is not published in
// any hazard-pointer slot (Michael's Scan with a sorted snapshot). The
// snapshot lives in the session's reusable scratch buffer, so steady-state
// scans allocate nothing. The walk covers every session ever registered;
// idle slots hold nonePtr and are skipped by value.
func (d *Pointers) scan(h *reclaim.Handle) {
	h.NoteScan()
	defer h.NoteScanEnd()
	h.AdoptOrphans()
	if len(h.Retired()) == 0 {
		return
	}
	snap := h.EraScratch() // holds pointer bits here, not eras
	snap.Begin()
	walk := d.Sessions()
	for slots := walk.Next(); slots != nil; slots = walk.Next() {
		schedtest.Point(schedtest.PointScan)
		for t := range slots {
			w := slots[t].Words()
			for i := range w {
				if p := w[i].Load(); p != nonePtr {
					snap.Add(p)
				}
			}
		}
	}
	snap.Seal()
	h.ReclaimUnprotected(func(obj mem.Ref) bool {
		return snap.Contains(uint64(obj))
	})
}

// Unregister drains the departing session before recycling its slot: hazard
// pointers are cleared, a final scan reclaims everything now unprotected,
// and survivors (pinned by other sessions) move to the shared orphan pool
// for the next scanning session to adopt.
func (d *Pointers) Unregister(h *reclaim.Handle) {
	d.Clear(h)
	d.scan(h)
	h.Abandon()
	d.Base.Unregister(h)
}

// Drain implements reclaim.Domain.
func (d *Pointers) Drain() { d.DrainAll() }

// Stats implements reclaim.Domain.
func (d *Pointers) Stats() reclaim.Stats { return d.BaseStats() }
