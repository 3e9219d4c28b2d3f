// Package hyaline implements snapshot-free reclamation with per-batch
// reference counts (R. Nikolaev and B. Ravindran, "Hyaline: Fast and
// Transparent Lock-Free Memory Reclamation", arXiv:1905.07903) — the first
// of the two direct follow-ons to Hazard Eras this repository carries (the
// other is wfe).
//
// Where HE, IBR and HP all reclaim by *scanning*: walk the registry,
// snapshot every published era/pointer, test each retired object against
// the snapshot — Hyaline never walks the registry at reclaim time. Instead,
// retirement seals the session's retired list into a *batch* carrying one
// atomic reference count, and hands the batch to every currently active
// session by pushing a node onto that session's handoff stack. Each active
// session that received the batch decrements the count when it leaves its
// operation; whoever drops the count to zero frees the whole batch. The
// cost of reclamation is therefore O(active sessions) at retire time and
// O(handoffs received) at operation exit — per BATCH, not per object — and
// no quiescence detection, epoch agreement or snapshot ever happens.
//
// # Handoff stacks and the activity sentinel
//
// A session's handoff stack head doubles as its activity flag (the paper's
// combined HEAD/state word): an inactive session publishes a reserved
// sentinel node, an active one publishes nil or a real list. Entering an
// operation stores nil (activate); leaving swaps the sentinel back in,
// which *atomically* detaches the received handoffs and stops further
// pushes — a retirer whose push CAS loses against the swap observes the
// sentinel and skips the slot without counting it. This closes the
// insert/leave race without any coordination beyond the one CAS: a batch's
// count is incremented (by the retirer, via the post-walk Add) only for
// handoffs that provably landed on a then-active session's stack.
//
// The count itself starts at zero and is adjusted *after* the distribution
// walk by the number of successful insertions; leavers that process a
// handoff before the adjustment drive the count negative, and the
// adjustment restores balance — zero is reached exactly once, by whichever
// side finishes last (the paper's NREF adjustment). Order matters nowhere
// else: all transitions are plain atomic adds on one word.
//
// # Robustness: birth eras filter the handoff
//
// Plain Hyaline hands every batch to every active session, so one stalled
// reader pins every subsequently retired batch — EBR's failure mode. The
// robust variant (the paper's Hyaline-1R, on by default here) reuses the
// substrate's era machinery: the clock advances on retirement, readers
// publish the era they observed in their slot word (the same
// load/validate/republish loop as HE Algorithm 2, against one cell, raised
// monotonically as the operation encounters newer eras), and the retirer
// skips any active session whose published era is *older than the minimum
// birth era of the batch*. Such a session cannot hold a reference into the
// batch: every reference a session dereferences passes through Protect,
// which published and validated an era >= that object's birth era first —
// so a published era below the batch minimum proves every object in the
// batch was born after the session's last validated load. A stalled
// reader's era freezes, new batches are born past it, and reclamation of
// everything born after the stall proceeds without it (the Figure-4
// scenario in EXPERIMENTS.md; the stalled-reader regression test pins it).
//
// Like HP — and unlike EBR — this protection contract requires the
// structure's validated-traversal discipline: a reference is only followed
// out of a node that Protect covered and the traversal re-validated
// (Michael-style restarts on marked nodes). Every structure in this
// repository already obeys it, since the HP baseline needs exactly the
// same.
//
// # What stays on the substrate
//
// Batches are freed through Handle.FreeRetired, so the freed-while-
// protected oracle (SetFreeGuard), the striped freed/byte accounting, the
// flight recorder and the schedtest free gate all observe every free.
// Handoff nodes are heap-allocated and GC-managed; the paper embeds them
// in the retired nodes themselves, an optimization this arena's fixed
// headers do not accommodate.
package hyaline

import (
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
)

// noneEra marks an inactive session's published era word; the clock starts
// at 1, so 0 never names a real era.
const noneEra = 0

// batch is a sealed retired list with one shared reference count (the
// paper's batch with its NREF node). refs is immutable after sealing;
// minBirth is the youngest era that can prove non-reachability.
type batch struct {
	refs     []mem.Ref
	minBirth uint64
	rc       atomic.Int64
}

// handNode links one batch into one session's handoff stack.
type handNode struct {
	b    *batch
	next *handNode
}

// inactiveNode is the reserved sentinel a quiescent session publishes as
// its handoff head. Pushes CAS against the loaded head and never link the
// sentinel, so observing it is an authoritative "this session cannot hold
// references into any batch sealed from now on".
var inactiveNode = &handNode{}

// handState is the per-slot handoff anchor, in a side table indexed by
// slot id (the registry's words hold the published era; the handoff head
// needs pointer width, which the uint64 slot words cannot carry through
// the GC).
type handState struct {
	head atomic.Pointer[handNode]
	// words caches the slot's published cells so the distribution walk can
	// read the era filter without a registry lookup. Set at ensure time;
	// stable across handle pooling (the slot never moves).
	words []atomicx.PaddedUint64
	_     atomicx.CacheLinePad
}

// TestingMutation selects a deliberately introduced defect for
// cmd/hecheck's mutation kill-check (see core.TestingMutation).
type TestingMutation int

const (
	// MutNone is the correct algorithm.
	MutNone TestingMutation = iota
	// MutEarlyDecRef makes every handoff decrement drop the batch count by
	// two instead of one: a batch distributed to k active sessions is freed
	// after only ceil(k/2) of them leave, while the remaining sessions may
	// still hold validated references into it.
	MutEarlyDecRef
)

// Domain is the Hyaline reclamation domain.
type Domain struct {
	reclaim.Base

	// Leading pad: keep the per-retire clock off the line holding the
	// embedded Base's trailing fields (PaddedUint64 pads only after).
	_        atomicx.CacheLinePad
	eraClock atomicx.PaddedUint64

	// hand is the slot-id-indexed handoff table; grown (never shrunk) under
	// handMu, read lock-free through the atomic pointer.
	hand   atomic.Pointer[[]*handState]
	handMu sync.Mutex

	advanceEvery uint64
	robust       bool
	mutation     TestingMutation
}

var _ reclaim.Domain = (*Domain)(nil)

// Option configures the domain.
type Option func(*Domain)

// WithRobust toggles the birth-era handoff filter (the paper's robust
// Hyaline-1R variant). Default on; off reproduces plain Hyaline, whose
// pending set grows without bound under a stalled reader exactly like
// EBR's (the A/B half of the Figure-4 demonstration).
func WithRobust(on bool) Option {
	return func(d *Domain) { d.robust = on }
}

// WithAdvanceEvery sets the era-advance frequency: the clock advances on
// every k-th Retire per session (the same trade as HE's §3.4 k-advance;
// only the robust filter consumes the clock).
func WithAdvanceEvery(k int) Option {
	return func(d *Domain) {
		if k > 1 {
			d.advanceEvery = uint64(k)
		}
	}
}

// EnableMutation installs a kill-check defect (construction/setup time
// only). Test-only: it exists so the detection machinery itself can be
// validated against a scheme known to be broken.
func (d *Domain) EnableMutation(m TestingMutation) { d.mutation = m }

// New constructs a Hyaline domain over the given allocator.
func New(alloc reclaim.Allocator, cfg reclaim.Config, opts ...Option) *Domain {
	d := &Domain{
		Base:         reclaim.NewBase(alloc, cfg, 1, noneEra),
		advanceEvery: 1,
		robust:       true,
	}
	d.Base.Dom = d
	d.eraClock.Store(1)
	for _, o := range opts {
		o(d)
	}
	tbl := make([]*handState, 0)
	d.hand.Store(&tbl)
	// Era view for the observability layer: the published slot word is the
	// oldest era the session's held references can reach; inactive sessions
	// publish 0. This powers the same era-lag gauges and stalled-reader
	// detector as the scanning schemes.
	d.SetObsEraView(d.Era, func(words []atomicx.PaddedUint64) (uint64, bool) {
		e := words[0].Load()
		return e, e != noneEra
	})
	return d
}

// Name implements reclaim.Domain.
func (d *Domain) Name() string {
	if !d.robust {
		return "hyaline"
	}
	return "hyaline-1r"
}

// Era returns the current global era.
func (d *Domain) Era() uint64 { return d.eraClock.Load() }

// OnAlloc stamps the birth era (identical to Hazard Eras); the robust
// handoff filter tests against it.
func (d *Domain) OnAlloc(ref mem.Ref) {
	e := d.eraClock.Load()
	d.Alloc.Header(ref).BirthEra = e
	d.TraceAlloc(ref, e)
}

// Register opens a session and materializes its handoff anchor.
func (d *Domain) Register() *reclaim.Handle {
	h := d.Base.Register()
	d.ensure(h)
	return h
}

// Acquire returns a pooled session (or registers one) with its handoff
// anchor materialized. Base.Acquire's pool-miss path calls Base.Register
// directly, so both entry points must ensure.
func (d *Domain) Acquire() *reclaim.Handle {
	h := d.Base.Acquire()
	d.ensure(h)
	return h
}

// ensure grows the handoff table to cover h's slot and installs its anchor.
// Idempotent: a recycled slot keeps its anchor (and the sentinel its last
// Leave published).
func (d *Domain) ensure(h *reclaim.Handle) {
	id := h.ID()
	if tbl := *d.hand.Load(); id < len(tbl) && tbl[id] != nil {
		return
	}
	d.handMu.Lock()
	defer d.handMu.Unlock()
	old := *d.hand.Load()
	if id < len(old) && old[id] != nil {
		return
	}
	// Copy-on-write even when only filling a nil hole (left by an
	// out-of-order registration growing the table first): the
	// distribution walk reads the published backing array lock-free, so
	// elements of a published slice are never written in place — and a
	// racy reader must never observe the anchor before the sentinel
	// store, or it would treat the idle session as active-and-empty.
	n := len(old)
	if id >= n {
		n = id + 1
	}
	tbl := make([]*handState, n)
	copy(tbl, old)
	st := &handState{words: h.Words}
	st.head.Store(inactiveNode)
	tbl[id] = st
	d.hand.Store(&tbl)
}

// state returns h's handoff anchor; ensure ran at Register/Acquire, so the
// lookup is two loads. A session that reached the domain without
// Register/Acquire falls through to ensure here.
func (d *Domain) state(h *reclaim.Handle) *handState {
	if tbl := *d.hand.Load(); h.ID() < len(tbl) {
		if st := tbl[h.ID()]; st != nil {
			return st
		}
	}
	d.ensure(h)
	return (*d.hand.Load())[h.ID()]
}

// BeginOp activates the session: publish the observed era, then swing the
// handoff head from the sentinel to the empty list. The era store precedes
// the activation store, so any retirer that observes the slot active also
// observes a valid era (the seq-cst total order runs era-store, activate,
// retirer's head-load, retirer's era-load).
func (d *Domain) BeginOp(h *reclaim.Handle) {
	e := d.eraClock.Load()
	// The window this gate exposes: the era is read but neither the era
	// word nor the activity that pins batches is published yet.
	schedtest.Point(schedtest.PointProtect)
	h.Lo = e
	h.Words[0].Store(e)
	// Swap, not Store: the head should hold the sentinel here, but any
	// real nodes present carry counted batch references, and a plain
	// store would leak them. Mirroring EndOp keeps activation lossless
	// against any path that lands a handoff on an idle session.
	n := d.state(h).head.Swap(nil)
	for ; n != nil && n != inactiveNode; n = n.next {
		d.decBatch(h, n.b)
	}
}

// EndOp leaves the critical section: detach-and-deactivate in one swap,
// retract the published era, then decrement every received batch. The swap
// comes first so a concurrent distribution walk either landed its handoff
// before it (and is processed below) or loses its CAS, observes the
// sentinel and never counts the insertion.
func (d *Domain) EndOp(h *reclaim.Handle) {
	st := d.state(h)
	n := st.head.Swap(inactiveNode)
	if h.Lo != noneEra {
		h.Lo = noneEra
		h.Words[0].Store(noneEra)
	}
	for ; n != nil && n != inactiveNode; n = n.next {
		d.decBatch(h, n.b)
	}
}

// decBatch drops one handoff reference; the count reaching zero frees the
// whole batch through the substrate free path (oracle, stripes, recorder).
func (d *Domain) decBatch(h *reclaim.Handle, b *batch) {
	delta := int64(-1)
	if d.mutation == MutEarlyDecRef {
		// Kill-check defect: each leaver takes two references down, freeing
		// the batch while later leavers still hold validated pointers in.
		delta = -2
	}
	// Only an exact zero is the completed state: before the retirer's
	// post-walk adjustment the count is negative, and only the adjustment
	// (or a decrement after it) can land on zero — exactly once.
	if b.rc.Add(delta) != 0 {
		return
	}
	for _, ref := range b.refs {
		h.FreeRetired(ref)
	}
}

// Protect loads *src under the published era. The robust variant runs HE's
// Algorithm-2 load/validate/republish loop against the session's single
// era cell (raising it monotonically); the plain variant is EBR's bare
// load — activity alone protects, which is exactly what costs it
// robustness. The index argument is ignored: one cell covers every pointer
// the operation holds.
func (d *Domain) Protect(h *reclaim.Handle, index int, src *atomic.Uint64) mem.Ref {
	h.InsVisit()
	if !d.robust {
		h.InsLoad()
		return mem.Ref(src.Load())
	}
	for {
		ptr := mem.Ref(src.Load())
		h.InsLoad()
		// The window this gate exposes: the reference is read but the era
		// that will justify the handoff filter is not yet validated.
		schedtest.Point(schedtest.PointProtect)
		era := d.eraClock.Load()
		h.InsLoad()
		if era == h.Lo {
			return ptr
		}
		h.Lo = era
		h.Words[0].Store(era)
		h.InsStore()
	}
}

// Retire stamps the death era, accumulates the object on the session's
// retired list, advances the clock per the advance frequency (feeding the
// robust filter), and seals-and-distributes once the session's retires since
// its last seal reach the scan trigger — the batch size. No registry
// snapshot, no protection test: distribution is the whole reclamation step.
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

// Scan runs one seal-and-distribute pass over the session's retired list.
// Retire calls it at the scan threshold; it is exported as the ScanNow
// escape hatch for harness teardown and tests.
func (d *Domain) Scan(h *reclaim.Handle) { d.scan(h) }

// scan seals the retired list into a batch and hands it to every active
// session that could hold references into it. The batch count is adjusted
// once, after the walk, by the number of handoffs that landed (see the
// package comment for why zero is reached exactly once); if nothing
// landed — no active sessions, or all filtered by birth era — the batch is
// freed on the spot, still through the substrate free path.
func (d *Domain) scan(h *reclaim.Handle) {
	h.NoteScan()
	defer h.NoteScanEnd()
	h.AdoptOrphans()
	refs := h.Retired()
	if len(refs) == 0 {
		return
	}
	b := &batch{refs: refs}
	h.SetRetired(nil)
	b.minBirth = d.Alloc.Header(refs[0]).BirthEra
	for _, ref := range refs[1:] {
		if e := d.Alloc.Header(ref).BirthEra; e < b.minBirth {
			b.minBirth = e
		}
	}

	var inserted int64
	for _, st := range *d.hand.Load() {
		if st == nil {
			continue
		}
		// The window this gate exposes: the handoff walk is mid-flight;
		// sessions can activate, deactivate or publish fresher eras between
		// slots.
		schedtest.Point(schedtest.PointScan)
		n := &handNode{b: b}
		for {
			hd := st.head.Load()
			if hd == inactiveNode {
				break
			}
			if d.robust {
				// A published era below the batch's minimum birth proves the
				// session validated no load that could have reached any object
				// in the batch; era 0 is an activation in flight — conservative
				// handoff (the CAS below settles whether it landed).
				if e := st.words[0].Load(); e != noneEra && e < b.minBirth {
					break
				}
			}
			n.next = hd
			if st.head.CompareAndSwap(hd, n) {
				inserted++
				break
			}
		}
	}
	if inserted > 0 {
		// Sampled lifecycle spans: every traced ref in the batch changed
		// hands to `inserted` receiving sessions. One nil-gated call per ref,
		// only on the amortized-rare scan path.
		for _, ref := range refs {
			h.TraceHandoff(ref, uint64(inserted))
		}
	}
	if b.rc.Add(inserted) == 0 {
		for _, ref := range b.refs {
			h.FreeRetired(ref)
		}
	}
}

// Unregister drains the departing session before recycling its slot: leave
// the critical section (processing received handoffs), seal-and-distribute
// whatever is still on the retired list, and hand the slot back. Nothing
// is abandoned to the orphan pool on this path — distribution IS the
// handoff — but adopted orphans from scanning the shared pool ride the
// same sealed batch.
func (d *Domain) Unregister(h *reclaim.Handle) {
	d.EndOp(h)
	d.scan(h)
	h.Abandon()
	d.Base.Unregister(h)
}

// Drain frees every pending retired object unconditionally (the paper's
// destructor; quiescence-only). Outstanding batches live on handoff
// stacks, which DrainAll's registry walk cannot see, so they are detached
// and released here first; unsealed retired lists and the orphan pool then
// drain through the substrate as usual. Batch counts are ignored: at
// quiescence every stack is complete, and walking all of them releases
// every reference exactly once — the zero test below just dedupes batches
// handed to several sessions.
func (d *Domain) Drain() {
	for _, st := range *d.hand.Load() {
		if st == nil {
			continue
		}
		n := st.head.Swap(inactiveNode)
		for ; n != nil && n != inactiveNode; n = n.next {
			if n.b.rc.Add(-1) == 0 {
				for _, ref := range n.b.refs {
					d.FreeAt(0, ref)
				}
			}
		}
	}
	d.DrainAll()
}

// Stats implements reclaim.Domain.
func (d *Domain) Stats() reclaim.Stats {
	s := d.BaseStats()
	s.EraClock = d.eraClock.Load()
	return s
}

// EnableObs attaches observability and registers the scheme-deep metric
// source on top of the substrate's gauges: handoff-stack depths and batch
// ages are Hyaline's own health signals (a deep stack or an old batch is a
// receiver not leaving its critical section) and no substrate counter can
// see them.
func (d *Domain) EnableObs(od *obs.Domain) {
	d.Base.EnableObs(od)
	od.AddSchemeSource(d.schemeMetrics)
}

// schemeMetrics snapshots the handoff-stack telemetry. Called from the obs
// domain's Snapshot path (collection cadence, not hot path). The walk is
// safe against concurrent retirers and leavers: a loaded head's chain is
// immutable (nodes fully written before the publishing CAS; EndOp detaches
// by swap and never edits next pointers), and only pointer identity is read
// from batches — never refs, which may already be freed by the time the
// walk reaches an old node.
func (d *Domain) schemeMetrics() []obs.SchemeMetric {
	var (
		depths   []obs.LabeledValue
		maxDepth int64
	)
	seen := make(map[*batch]struct{})
	for id, st := range *d.hand.Load() {
		if st == nil {
			continue
		}
		depth := int64(0)
		for n := st.head.Load(); n != nil && n != inactiveNode; n = n.next {
			depth++
			seen[n.b] = struct{}{}
		}
		if depth > 0 {
			depths = append(depths, obs.LabeledValue{Label: strconv.Itoa(id), Value: depth})
		}
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	return []obs.SchemeMetric{
		{
			Name:   "smr_hyaline_handoff_depth",
			Help:   "Undrained handoff-stack depth per session (batches awaiting the receiver's EndOp).",
			Kind:   "gauge",
			Label:  "session",
			Values: depths,
		},
		{
			Name:  "smr_hyaline_handoff_depth_max",
			Help:  "Deepest per-session handoff stack (batches).",
			Kind:  "gauge",
			Value: maxDepth,
		},
		{
			Name:  "smr_hyaline_batches_inflight",
			Help:  "Distinct sealed batches currently held on handoff stacks.",
			Kind:  "gauge",
			Value: int64(len(seen)),
		},
	}
}
