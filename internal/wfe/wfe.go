// Package wfe implements Wait-Free Eras (R. Nikolaev and B. Ravindran,
// "Universal Wait-Free Memory Reclamation", arXiv:2001.01999), the
// wait-free successor to Hazard Eras — the second of the two direct
// follow-ons this repository carries (the other is hyaline).
//
// HE's get_protected (core.Eras.Protect) is lock-free, not wait-free: its
// load/validate/republish loop retries whenever the era clock advanced
// during the load, so a reader racing a fast retirer can retry without
// bound. WFE bounds the retries: after maxTries failed validations the
// reader *announces* its stalled load — which source cell it is trying to
// read — and the threads that invalidate it become responsible for
// completing it. Every retirer that is about to advance the era clock
// first services all announced requests, certifying a (value, era) pair
// the reader can adopt. A reader therefore finishes within a bounded
// number of clock advances, and the clock only advances through retirers
// that helped first: wait-freedom for Protect, while the fast path stays
// HE's two seq-cst loads, untouched.
//
// # The helping handshake on this substrate
//
// The paper certifies (value, era) pairs with double-width CAS on the
// reader's era slot. Go has no DWCAS, so the protocol here splits the pair
// across two locations and validates their continuity instead:
//
//   - Each session's registry slot carries one extra published word beyond
//     its protection indices — the HELP CELL, written only by helpers and
//     cleared by the owner. Scans read it like any other hazard-era cell.
//   - A helper serving request q: read the clock (e), raise the help cell
//     to e with CAS (the cell is monotone within a request — CAS from the
//     observed value to a never-smaller clock reading — so there is no
//     ABA), read the announced source cell (v), then re-read the clock.
//     Only if the clock still reads e is the pair (v, e) published as the
//     request's result: v was then loaded at era e with e already
//     published in the reader's slot, so v's birth is at most e and —
//     since any retirement of v must observe a clock at least e after the
//     unlink the helper's load preceded — e lies inside v's lifespan.
//     Every scan keeps such a v alive.
//   - The reader adopts a result by TRANSFERRING FIRST and VALIDATING
//     AFTER: it publishes the result era into its own protection index,
//     then re-checks that the help cell still holds exactly that era. The
//     cell is raise-only while the request is live, so an unchanged value
//     proves the cell covered the helper's load continuously until after
//     the reader's own publication took over — at every instant from the
//     helper's load to the reader's return, some published cell of this
//     slot holds the protecting era. If the check fails (a fresher helper
//     raised the cell, yanking the old era), the transferred era is simply
//     a conservative publication; the reader discards the result and
//     retries, now one clock value fresher.
//
// Why the retries are bounded: consider the first retirer to complete a
// clock advance after the announcement. Helping runs before advancing, so
// during that retirer's help pass the clock was stable (any earlier
// advance contradicts it being first), its validation cannot fail, and it
// publishes a result whose era matches the still-unraised cell. In-flight
// retirers from before the announcement are finitely many, so after at
// most that many advances plus one the reader adopts (or its own fast
// path validated first). A helper from a completed request re-checks the
// request sequence around every cell CAS and retracts a raise that landed
// after completion, so at worst an idle help cell is dirtied transiently —
// a one-era over-protection until the retraction (or the next Clear);
// helpers can never revive protection for a freed object, because adoption
// re-validates the cell against the result era.
//
// Retire, Clear and scan are HE's, wait-free bounded as before; the help
// pass adds O(announced requests) to the retires that advance the clock,
// gated behind one load of a global waiter count on the common path.
// Helped advances go through the same single eraClock.Add as ordinary
// ones, so era-derived gauges (smr_era_lag_*, Stats.EraClock) count each
// advance exactly once — there is no second clock to reconcile.
package wfe

import (
	"sync"
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
)

// noneEra is the idle published value; the clock starts at 1.
const noneEra = 0

// helpResult is an immutable certified (value, era) pair for request seq.
// Publishing it through one atomic pointer is what substitutes for the
// paper's double-width CAS.
type helpResult struct {
	seq uint64
	ptr mem.Ref
	era uint64
}

// annState is a session's announcement record, in a side table indexed by
// slot id. seq is even at rest, odd while a request is live (asymmetric
// Lamport-style sequence lock: the owner writes, helpers read).
type annState struct {
	seq    atomic.Uint64
	src    atomic.Pointer[atomic.Uint64]
	result atomic.Pointer[helpResult]
	// words caches the slot's published cells so helpers reach the help
	// cell without a registry lookup. Set at ensure time; stable across
	// handle pooling (the slot never moves).
	words []atomicx.PaddedUint64
	_     atomicx.CacheLinePad
}

// TestingMutation selects a deliberately introduced defect for
// cmd/hecheck's mutation kill-check (see core.TestingMutation).
type TestingMutation int

const (
	// MutNone is the correct algorithm.
	MutNone TestingMutation = iota
	// MutSkipHelpValidate removes both validations of the helping
	// handshake: the helper publishes its (value, era) pair without
	// re-reading the clock after the source load, and the reader adopts
	// without re-checking the help cell. A pair formed across a clock
	// advance can then carry an era below the loaded object's birth era —
	// an adopted protection no scan honors. The mutant owner also defers
	// to the protocol it blindly trusts: the slow path prefers adoption
	// over self-completion (bounded, so liveness is preserved), modeling a
	// reader that treats the helpers' certificate as authoritative — which
	// is exactly what keeps the announcement live long enough for the
	// unvalidated pair to be adopted.
	MutSkipHelpValidate
)

// Domain is the Wait-Free Eras reclamation domain.
type Domain struct {
	reclaim.Base

	// Leading pad: keep the per-retire clock off the line holding the
	// embedded Base's trailing fields (PaddedUint64 pads only after).
	_        atomicx.CacheLinePad
	eraClock atomicx.PaddedUint64

	// slow counts live announcements; retirers consult it with one load
	// before advancing and run the help pass only when it is nonzero.
	slow atomicx.PaddedInt64

	// ann is the slot-id-indexed announcement table; grown (never shrunk)
	// under annMu, read lock-free through the atomic pointer.
	ann   atomic.Pointer[[]*annState]
	annMu sync.Mutex

	advanceEvery uint64
	maxTries     int
	mutation     TestingMutation

	// Scheme-deep telemetry counters (smr_wfe_*). All live on slow paths —
	// announcement, helping, adoption — so the unconditional atomic adds
	// cost nothing on the two-load fast path they exist to monitor.
	announces  atomic.Int64 // fast path exhausted maxTries; request announced
	helped     atomic.Int64 // certificates published by helpers
	adopts     atomic.Int64 // certificates adopted (validated) by readers
	adoptFails atomic.Int64 // certificates discarded after failed validation
}

var _ reclaim.Domain = (*Domain)(nil)

// Option configures the domain.
type Option func(*Domain)

// WithAdvanceEvery sets k-advance exactly as in HE §3.4: the eraClock is
// advanced only on every k-th Retire per session.
func WithAdvanceEvery(k int) Option {
	return func(d *Domain) {
		if k > 1 {
			d.advanceEvery = uint64(k)
		}
	}
}

// WithMaxTries sets how many fast-path validation failures Protect
// tolerates before announcing (the paper's MAX_TRIES). Low values force
// the helping protocol into reach of short seeded schedules; the default
// of 8 keeps announcements rare in production.
func WithMaxTries(n int) Option {
	return func(d *Domain) {
		if n >= 1 {
			d.maxTries = n
		}
	}
}

// SetMaxTries adjusts the announce threshold after construction (setup
// time only); cmd/hecheck drops it to 1 so every seeded schedule exercises
// the helping path. 0 disables the fast path entirely — every Protect
// announces and rides the helping protocol — which kill-checks use to
// concentrate schedules on the certification handshake.
func (d *Domain) SetMaxTries(n int) {
	if n >= 0 {
		d.maxTries = n
	}
}

// EnableMutation installs a kill-check defect (construction/setup time
// only). Test-only: it exists so the detection machinery itself can be
// validated against a scheme known to be broken.
func (d *Domain) EnableMutation(m TestingMutation) { d.mutation = m }

// New constructs a Wait-Free Eras domain over the given allocator.
func New(alloc reclaim.Allocator, cfg reclaim.Config, opts ...Option) *Domain {
	cfg = cfg.Defaulted()
	d := &Domain{
		// One extra published word per slot: the help cell, written by
		// helpers on the session's behalf and read by scans like any other
		// hazard-era cell.
		Base:         reclaim.NewBase(alloc, cfg, cfg.Slots+1, noneEra),
		advanceEvery: 1,
		maxTries:     8,
	}
	d.Base.Dom = d
	d.eraClock.Store(1)
	for _, o := range opts {
		o(d)
	}
	tbl := make([]*annState, 0)
	d.ann.Store(&tbl)
	// Era view for the observability layer: a session's pinned era is the
	// minimum over its published cells — protection indices and help cell
	// alike, since scans honor both.
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
func (d *Domain) Name() string { return "WFE" }

// Era returns the current value of the global era clock.
func (d *Domain) Era() uint64 { return d.eraClock.Load() }

// OnAlloc stamps the birth era (identical to Hazard Eras).
func (d *Domain) OnAlloc(ref mem.Ref) {
	e := d.eraClock.Load()
	d.Alloc.Header(ref).BirthEra = e
	d.TraceAlloc(ref, e)
}

// Register opens a session and materializes its announcement record.
func (d *Domain) Register() *reclaim.Handle {
	h := d.Base.Register()
	d.ensure(h)
	return h
}

// Acquire returns a pooled session (or registers one) with its
// announcement record materialized. Base.Acquire's pool-miss path calls
// Base.Register directly, so both entry points must ensure.
func (d *Domain) Acquire() *reclaim.Handle {
	h := d.Base.Acquire()
	d.ensure(h)
	return h
}

// ensure grows the announcement table to cover h's slot. Idempotent: a
// recycled slot keeps its record (seq stays even between owners).
func (d *Domain) ensure(h *reclaim.Handle) {
	id := h.ID()
	if tbl := *d.ann.Load(); id < len(tbl) && tbl[id] != nil {
		return
	}
	d.annMu.Lock()
	defer d.annMu.Unlock()
	old := *d.ann.Load()
	if id < len(old) && old[id] != nil {
		return
	}
	// Copy-on-write even when only filling a nil hole (left by an
	// out-of-order registration growing the table first): helpAll reads
	// the published backing array lock-free, so elements of a published
	// slice are never written in place.
	n := len(old)
	if id >= n {
		n = id + 1
	}
	tbl := make([]*annState, n)
	copy(tbl, old)
	tbl[id] = &annState{words: h.Words}
	d.ann.Store(&tbl)
}

// state returns h's announcement record. A session that reached the domain
// without Register/Acquire falls through to ensure here.
func (d *Domain) state(h *reclaim.Handle) *annState {
	if tbl := *d.ann.Load(); h.ID() < len(tbl) {
		if st := tbl[h.ID()]; st != nil {
			return st
		}
	}
	d.ensure(h)
	return (*d.ann.Load())[h.ID()]
}

// BeginOp implements reclaim.Domain; pointer-based schemes need no
// per-operation entry protocol.
func (d *Domain) BeginOp(h *reclaim.Handle) {}

// EndOp clears all protection indices.
func (d *Domain) EndOp(h *reclaim.Handle) { d.Clear(h) }

// Clear resets every published cell of the session — the protection
// indices through their owner-side mirrors, and the help cell, which has
// no mirror because helpers write it: a helper from a completed request
// may have re-raised it, and leaving that era published would pin it until
// the next slow path. Wait-free bounded.
func (d *Domain) Clear(h *reclaim.Handle) {
	for i := range h.Held {
		if h.Held[i] != noneEra {
			h.Words[i].Store(noneEra)
			h.Held[i] = noneEra
		}
	}
	if hc := &h.Words[len(h.Words)-1]; hc.Load() != noneEra {
		hc.Store(noneEra)
	}
}

// Protect is HE's get_protected with the retry bound that makes it
// wait-free: the usual load/validate/republish fast path for up to
// maxTries rounds, then the announcement slow path. A nil load returns at
// once, before either, with no era published.
func (d *Domain) Protect(h *reclaim.Handle, index int, src *atomic.Uint64) mem.Ref {
	prevEra := h.Held[index]
	h.InsVisit()
	for try := 0; try < d.maxTries; try++ {
		ptr := mem.Ref(src.Load())
		h.InsLoad()
		if ptr.IsNil() {
			// Nothing to protect, and no era or announcement is needed to
			// say so: a nil link cannot be dereferenced.
			return ptr
		}
		// The window this gate exposes: the reference is read but the era
		// that will protect it is not yet validated/published.
		schedtest.Point(schedtest.PointProtect)
		era := d.eraClock.Load()
		h.InsLoad()
		if era == prevEra {
			return ptr
		}
		d.publish(h, index, era)
		prevEra = era
	}
	return d.protectSlow(h, index, src, prevEra)
}

// publish records era in the owner-side mirror and the published cell.
func (d *Domain) publish(h *reclaim.Handle, index int, era uint64) {
	h.Held[index] = era
	h.Words[index].Store(era)
	h.InsStore()
}

// protectSlow announces the stalled load and keeps retrying while helpers
// race to complete it; whichever side certifies a pair first wins. See the
// package comment for the adoption handshake and the retry bound.
func (d *Domain) protectSlow(h *reclaim.Handle, index int, src *atomic.Uint64, prevEra uint64) mem.Ref {
	st := d.state(h)
	d.announces.Add(1)
	q := st.seq.Load() + 1 // odd: request live
	st.src.Store(src)
	st.result.Store(nil)
	st.seq.Store(q)
	d.slow.Add(1)
	// The window this gate exposes: the announcement is published but no
	// helper has seen it; era advances from here on are obligated to help.
	schedtest.Point(schedtest.PointProtect)
	cell := &h.Words[len(h.Words)-1]
	var ptr mem.Ref
	futile := 0
	for {
		v := mem.Ref(src.Load())
		h.InsLoad()
		era := d.eraClock.Load()
		h.InsLoad()
		if era == prevEra {
			if d.mutation != MutSkipHelpValidate || futile >= 16 {
				ptr = v
				break
			}
			// Mutant: keep the request live and wait (bounded) for a
			// helper's certificate instead of self-completing.
			futile++
		} else {
			d.publish(h, index, era)
			prevEra = era
		}
		if r := st.result.Load(); r != nil && r.seq == q {
			// Adopt: transfer the certified era into the protection index
			// FIRST, then validate that the help cell still holds it — an
			// unchanged cell proves continuous coverage from the helper's
			// load until our own publication took over.
			d.publish(h, index, r.era)
			prevEra = r.era
			if d.mutation == MutSkipHelpValidate || cell.Load() == r.era {
				d.adopts.Add(1)
				ptr = r.ptr
				break
			}
			d.adoptFails.Add(1)
			// Yanked by a fresher helper before the transfer: the era we
			// published is merely conservative. Discarding must actually
			// remove the stale result — helpers refuse to overwrite an
			// existing result for this request (helpOne's r.seq >= q
			// guard), so leaving it in place would starve the reader of
			// any replacement certificate while the failed adoption keeps
			// resetting prevEra below the clock, disabling the fast
			// self-completion test too. CAS (not Store) so a certificate a
			// helper published concurrently is kept for the next round.
			st.result.CompareAndSwap(r, nil)
		}
		schedtest.Point(schedtest.PointProtect)
	}
	st.seq.Store(q + 1) // even: request complete
	d.slow.Add(-1)
	st.src.Store(nil)
	// Retract the help cell after the result era (if adopted) is safe in
	// the protection index. Late helpers may re-raise the idle cell; that
	// over-protects by one era until the next Clear, never less.
	cell.Store(noneEra)
	return ptr
}

// helpAll services every live announcement; retirers run it before
// advancing the clock whenever the waiter count is nonzero.
func (d *Domain) helpAll() {
	for _, st := range *d.ann.Load() {
		if st != nil {
			d.helpOne(st)
		}
	}
}

// helpOne tries to certify a (value, era) pair for st's live request. At
// most a few rounds: each failed round means the clock advanced under us,
// and the advancing retirer was itself obligated to help first.
func (d *Domain) helpOne(st *annState) {
	q := st.seq.Load()
	if q&1 == 0 {
		return
	}
	if r := st.result.Load(); r != nil && r.seq >= q {
		return
	}
	src := st.src.Load()
	if src == nil {
		return
	}
	cell := &st.words[len(st.words)-1]
	for round := 0; round < 3; round++ {
		e := d.eraClock.Load()
		ec := cell.Load()
		// Raise the cell to our clock reading. The cell is monotone while
		// the request is live (owners clear it only at completion, helpers
		// only raise), so the CAS cannot ABA. Re-verify liveness right
		// before each CAS and undo a raise that landed after completion:
		// a CAS that slips in behind the owner's final Clear (or behind
		// Base.Unregister's word reset, with the slot already parked in
		// the free list) would otherwise publish a stale era that no
		// future Clear is scheduled to remove, pinning reclamation for as
		// long as the slot stays free.
		for ec < e {
			if st.seq.Load() != q {
				return // request completed; don't dirty the idle cell
			}
			if cell.CompareAndSwap(ec, e) {
				ec = e
				break
			}
			ec = cell.Load()
		}
		if st.seq.Load() != q {
			// Completed while we raised: retract our era if the cell still
			// holds it (a fresher live request's raise makes the CAS fail,
			// which is exactly right — that cell is in use again).
			cell.CompareAndSwap(e, noneEra)
			return
		}
		if ec != e {
			// A helper with a fresher clock got here first; retry against
			// the new clock.
			continue
		}
		// The window this gate exposes: the era is published on the
		// reader's behalf but the value is not yet loaded.
		schedtest.Point(schedtest.PointProtect)
		v := mem.Ref(src.Load())
		if d.mutation != MutSkipHelpValidate && d.eraClock.Load() != ec {
			// The pair would span a clock advance; its era may miss the
			// loaded value's lifespan. Uncertifiable — retry.
			continue
		}
		if st.seq.Load() != q {
			cell.CompareAndSwap(e, noneEra)
			return // request completed while we worked
		}
		st.result.Store(&helpResult{seq: q, ptr: v, era: ec})
		d.helped.Add(1)
		return
	}
}

// Retire is HE's Algorithm 3 with the helping obligation attached to the
// clock advance: stamp the death era, push to the retired list, help any
// announced readers, then advance. One waiter-count load is the only cost
// when nobody is announced. Wait-free bounded, as in HE.
func (d *Domain) Retire(h *reclaim.Handle, ref mem.Ref) {
	ref = ref.Unmarked()
	currEra := d.eraClock.Load()
	d.Alloc.Header(ref).RetireEra = currEra
	h.PushRetired(ref)

	h.RetireCount++
	if h.RetireCount%d.advanceEvery == 0 && d.eraClock.Load() == currEra {
		if d.slow.Load() != 0 {
			d.helpAll()
		}
		schedtest.Point(schedtest.PointEra)
		// Benign race as in HE: two threads may both advance, which only
		// makes eras pass faster. Helping stays bounded: each helps before
		// its own Add.
		d.eraClock.Add(1)
	}
	if h.ScanDue() {
		d.scan(h)
	}
}

// Scan runs one reclamation pass over the session's retired list. Retire
// calls it at the scan threshold; it is exported as the ScanNow escape
// hatch.
func (d *Domain) Scan(h *reclaim.Handle) { d.scan(h) }

// scan is HE's standard-mode scan over every published cell — protection
// indices and help cells alike, which is precisely what lets a helper's
// installed era protect an adopted value before the reader republishes it.
func (d *Domain) scan(h *reclaim.Handle) {
	h.NoteScan()
	defer h.NoteScanEnd()
	h.AdoptOrphans()
	if len(h.Retired()) == 0 {
		return
	}
	snap := h.EraScratch()
	snap.Begin()
	walk := d.Sessions()
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
	h.ReclaimUnprotected(func(obj mem.Ref) bool {
		hdr := d.Alloc.Header(obj)
		return snap.CoversRange(hdr.BirthEra, hdr.RetireEra)
	})
}

// Unregister drains the departing session before recycling its slot,
// exactly as HE does: protections dropped, one final scan, survivors to
// the orphan pool.
func (d *Domain) Unregister(h *reclaim.Handle) {
	d.Clear(h)
	d.scan(h)
	h.Abandon()
	d.Base.Unregister(h)
}

// Drain implements reclaim.Domain (the paper's destructor).
func (d *Domain) Drain() { d.DrainAll() }

// Stats implements reclaim.Domain.
func (d *Domain) Stats() reclaim.Stats {
	s := d.BaseStats()
	s.EraClock = d.eraClock.Load()
	return s
}

// SetEraClock force-sets the global clock. Test-only, for deterministic
// scenarios; never call it while readers are active.
func (d *Domain) SetEraClock(v uint64) { d.eraClock.Store(v) }

// EnableObs attaches observability and registers the scheme-deep metric
// source: announcement/helping/adoption traffic is WFE's own health signal
// (a rising announce rate means the fast path is losing its validation race;
// adoption failures mean helpers and readers are fighting over help cells)
// and no substrate counter can see it.
func (d *Domain) EnableObs(od *obs.Domain) {
	d.Base.EnableObs(od)
	od.AddSchemeSource(d.schemeMetrics)
}

// schemeMetrics snapshots the helping-protocol counters. Called from the
// obs domain's Snapshot path (collection cadence, not hot path).
func (d *Domain) schemeMetrics() []obs.SchemeMetric {
	waiters := d.slow.Load()
	if waiters < 0 {
		waiters = 0
	}
	return []obs.SchemeMetric{
		{
			Name:  "smr_wfe_announce_total",
			Help:  "Protect slow-path entries: fast path exhausted its retry bound and announced.",
			Kind:  "counter",
			Value: d.announces.Load(),
		},
		{
			Name:  "smr_wfe_help_published_total",
			Help:  "Certified (value, era) pairs published by helpers on readers' behalf.",
			Kind:  "counter",
			Value: d.helped.Load(),
		},
		{
			Name:  "smr_wfe_adopt_total",
			Help:  "Helper certificates adopted by announcing readers after validation.",
			Kind:  "counter",
			Value: d.adopts.Load(),
		},
		{
			Name:  "smr_wfe_adopt_fail_total",
			Help:  "Helper certificates discarded because the help cell was re-raised before adoption validated.",
			Kind:  "counter",
			Value: d.adoptFails.Load(),
		},
		{
			Name:  "smr_wfe_waiters",
			Help:  "Live announcements awaiting help (retirers run the help pass while nonzero).",
			Kind:  "gauge",
			Value: waiters,
		},
	}
}
