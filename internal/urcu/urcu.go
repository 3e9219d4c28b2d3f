// Package urcu implements Grace-Version Userspace RCU (P. Ramalhete and
// A. Correia, "Grace Sharing Userspace-RCU", 2016) — the URCU variant the
// Hazard Eras paper benchmarks against, chosen there as "the currently
// fastest simple URCU based on the C++ memory model" (§4).
//
// Readers publish the updater version they observed on rcu_read_lock and an
// "unassigned" sentinel on rcu_read_unlock — one load and one store per
// operation, giving URCU the highest read-side throughput of all schemes
// (the paper's read-only panels show it up to 8× HP). Reclaimers call
// synchronize_rcu, which advances the version and *waits* until every reader
// has either unlocked or observed the new version. Grace periods are shared:
// a synchronizer whose target version another thread already advanced past
// skips the increment.
//
// The price is the paper's central criticism: Synchronize blocks, so a
// single preempted reader stalls every reclaimer — visible in the paper's
// oversubscribed update-heavy panels where URCU drops below HP/HE, and in
// this repository's stalled-reader experiments.
//
// A session's reader version is the single word of its registry slot,
// initialized to the unassigned sentinel. Synchronize walks the slot-block
// chain; a reader whose block it misses began its read-side section after
// the chain walk's first load, hence after the unlink being waited out —
// the standard new-reader argument (see reclaim/handle.go).
package urcu

import (
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
)

// unassigned is published by quiescent readers; it compares greater than
// every real version.
const unassigned = math.MaxUint64

// Domain is the Grace-Version URCU domain.
type Domain struct {
	reclaim.Base

	// Leading pad: keep the version clock off the line holding the embedded
	// Base's trailing fields (PaddedUint64 pads only after).
	_              atomicx.CacheLinePad
	updaterVersion atomicx.PaddedUint64
}

var _ reclaim.Domain = (*Domain)(nil)

// New constructs a URCU domain over the given allocator.
func New(alloc reclaim.Allocator, cfg reclaim.Config) *Domain {
	d := &Domain{Base: reclaim.NewBase(alloc, cfg, 1, unassigned)}
	d.Base.Dom = d
	d.updaterVersion.Store(1)
	// Era view for the observability layer: a reader's announcement is the
	// version it pins; quiescent sessions publish the unassigned sentinel.
	d.SetObsEraView(d.updaterVersion.Load, func(words []atomicx.PaddedUint64) (uint64, bool) {
		w := words[0].Load()
		return w, w != unassigned
	})
	return d
}

// Name implements reclaim.Domain.
func (d *Domain) Name() string { return "URCU" }

// OnAlloc implements reclaim.Domain; URCU needs no birth stamp.
func (d *Domain) OnAlloc(ref mem.Ref) { d.TraceAlloc(ref, 0) }

// BeginOp is rcu_read_lock: publish the current updater version.
func (d *Domain) BeginOp(h *reclaim.Handle) {
	v := d.updaterVersion.Load()
	// The window this gate exposes: the version is read but the reader's
	// announcement is not yet published.
	schedtest.Point(schedtest.PointProtect)
	h.Words[0].Store(v)
}

// EndOp is rcu_read_unlock: publish the unassigned sentinel.
func (d *Domain) EndOp(h *reclaim.Handle) {
	h.Words[0].Store(unassigned)
}

// Protect under URCU is a plain load; the read-side lock protects the whole
// operation.
func (d *Domain) Protect(h *reclaim.Handle, index int, src *atomic.Uint64) mem.Ref {
	h.InsVisit()
	h.InsLoad()
	return mem.Ref(src.Load())
}

// Synchronize waits for a full grace period: every reader active when it is
// called must unlock (or re-lock at a later version) before it returns.
// Grace periods are shared between concurrent synchronizers: whoever finds
// the version already advanced past its target skips the increment.
//
// This method BLOCKS while any reader holds an older version — it is the
// reason Table 1 classifies URCU reclaimers as blocking. Quiescent and
// free slots publish unassigned and never delay it.
func (d *Domain) Synchronize() {
	waitFor := d.updaterVersion.Load() + 1
	schedtest.Point(schedtest.PointEra)
	// Grace sharing: only advance if nobody has reached waitFor yet.
	if d.updaterVersion.Load() < waitFor {
		d.updaterVersion.CompareAndSwap(waitFor-1, waitFor)
	}
	walk := d.Sessions()
	for slots := walk.Next(); slots != nil; slots = walk.Next() {
		schedtest.Point(schedtest.PointScan)
		for i := range slots {
			w := slots[i].Word(0)
			for w.Load() < waitFor {
				// Under a deterministic schedule the waited-on reader cannot
				// run until this worker yields; a spin gate always hands the
				// token over (and reports a deadlock when nobody can unlock).
				schedtest.Point(schedtest.PointSpin)
				runtime.Gosched()
			}
		}
	}
}

// Retire frees ref after a full grace period. It first marks the calling
// session quiescent: synchronize_rcu must never be called from within a
// read-side critical section (self-deadlock), and the unlink that precedes
// retirement is the last shared access the operation performs. The caller
// must not dereference previously protected refs after Retire — the same
// contract C RCU code follows when it drops the read lock before
// synchronize_rcu().
func (d *Domain) Retire(h *reclaim.Handle, ref mem.Ref) {
	ref = ref.Unmarked()
	h.Words[0].Store(unassigned)
	h.PushRetired(ref)
	d.Synchronize()
	// After the grace period the object is unreachable by construction.
	h.NoteScan()
	rlist := h.Retired()
	for _, obj := range rlist {
		h.FreeRetired(obj)
	}
	h.SetRetired(rlist[:0])
	h.NoteScanEnd()
}

// Drain implements reclaim.Domain.
func (d *Domain) Drain() { d.DrainAll() }

// Stats implements reclaim.Domain.
func (d *Domain) Stats() reclaim.Stats {
	s := d.BaseStats()
	s.EraClock = d.updaterVersion.Load()
	return s
}
