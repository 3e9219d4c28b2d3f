package reclaim

import (
	"sync"
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Config carries the construction parameters common to all schemes,
// mirroring the paper's HazardEras(maxHEs, maxThreads) constructor.
type Config struct {
	// MaxThreads is the *initial* session capacity (the paper's
	// MAX_THREADS). Unlike the paper's fixed arrays, the registry grows by
	// publishing additional slot blocks when more sessions register, so
	// this is a sizing hint, not a limit.
	MaxThreads int
	// Slots is the number of protection indices per session (the paper's
	// maxHEs / maxHPs; the Maged-Harris list needs 3).
	Slots int
	// ScanR is the amortization factor of the scan trigger (Michael's
	// R = H + Ω(H) rule generalized to eras): a session scans once it has
	// retired ScanR·H objects since its last scan, where H = issued·Slots
	// counts the protection cells of every session id handed out so far,
	// read live from the registry. Zero means 1. Counting retires since the
	// last scan, not the list's length, keeps survivors a stalled reader
	// pins from re-triggering a scan. Each session then holds at most
	// ScanR·H unscanned objects plus the ones published cells pin.
	// Base.SetScanThreshold replaces the rule with an absolute count; 1 is
	// the paper's Algorithm 3, a scan on every retire.
	ScanR int
	// Instrument, when non-nil, enables reader-side atomic-op counting.
	Instrument *Instrument
}

// Defaulted returns cfg with zero fields replaced by sane defaults.
func (cfg Config) Defaulted() Config {
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = 64
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 4
	}
	return cfg
}

// shardedAllocator is implemented by allocators (mem.Arena) that maintain
// per-session free-slot magazines; FreeRetired routes through it when
// available so reclamation feeds slots back to the reclaiming session's own
// magazine instead of the contended global freelist.
type shardedAllocator interface {
	FreeAt(shard int, ref mem.Ref)
	FreeBatchAt(shard int, refs []mem.Ref)
}

// Base bundles the machinery every Domain implementation shares: the
// growing session registry, the handle pool, allocator access, statistics
// and instrumentation. Scheme packages embed it and set Dom to themselves
// at construction time so the generic Register/Acquire/Release paths can
// hand out handles that dispatch back to the scheme.
type Base struct {
	// Dom is the owning scheme; set by the scheme constructor right after
	// NewBase (`d.Base.Dom = d`). Handles created by Register carry it.
	Dom Domain

	// EraClock and EraPublish are set together, like Dom, by a scheme whose
	// Protect is the paper's Algorithm 2 (Hazard Eras). EraClock is the
	// scheme's global era clock; EraPublish records era as the one
	// protection index holds and publishes it. Handle.Protect then runs the
	// Algorithm-2 loop itself, without dispatching to the scheme, and calls
	// EraPublish only when the clock moved past the held era. Both are nil
	// for every other scheme.
	EraClock   *atomicx.PaddedUint64
	EraPublish func(h *Handle, index int, era uint64)

	Alloc Allocator
	Cfg   Config

	sharded shardedAllocator // Alloc, when it supports FreeAt (else nil)

	// The registry chain. head never changes after construction; growth
	// appends blocks by storing the tail's next pointer (seq-cst), which is
	// the publication point scans synchronize on. All other registry state
	// (tail cursor, free-slot list, handle pool, id counter) is mutated
	// only under mu — Register/Unregister/Acquire/Release are cold paths.
	head *SlotBlock

	// issued is the number of slot ids Register has handed out. Ids are
	// dense and a recycled slot keeps its id, so every slot a session has
	// ever owned lies in [0, issued). Register stores it (seq-cst, under
	// mu) after a grown block's publication and before it returns; every
	// registry walk (Sessions) and stripe fold stops there instead of at
	// the capacity.
	issued atomic.Int64

	mu        sync.Mutex
	tail      *SlotBlock
	tailUsed  int     // slots handed out from tail
	total     int     // slots across all published blocks
	freeSlots []*Slot // recycled by Unregister, preferred by Register
	pool      []*Handle

	active atomic.Int64

	// wordsPerSlot/initWord describe the published cells: how many each
	// slot carries and the idle sentinel value scans skip by (noneEra for
	// HE/HP/IBR, the inactive epoch for EBR, unassigned for URCU).
	wordsPerSlot int
	initWord     uint64

	// scanThreshold, when positive, is the absolute number of retires since
	// its last scan at which a session scans (SetScanThreshold); 0 applies
	// the live rule scanPer·issued. Both are written only during
	// construction (NewBase, SetScanThreshold).
	scanThreshold int
	scanPer       int // ScanR·Slots: the rule's retires per issued session

	// Retire/free/scan counters are striped by session id so the hot paths
	// touch only their own cache line; Sum folds them on demand.
	retired *atomicx.StripedCounter
	freed   *atomicx.StripedCounter
	scans   *atomicx.StripedCounter
	peak    atomicx.HighWaterMark

	// Byte-granular companions to retired/freed, active ONLY for class-aware
	// allocators (arenas with byte classes, where footprints vary per ref):
	// every retire/free then also adds the object's class footprint, so
	// Pending×SlotBytes approximations are replaced by true per-class byte
	// accounting (Equation 1 is a bound on bytes, not objects, once payloads
	// vary in size). Both are nil for single-class allocators — the common
	// fast path — where PendingBytes is computed as Pending×uniformBytes at
	// snapshot time and the retire/free paths pay nothing.
	retiredBytes *atomicx.StripedCounter
	freedBytes   *atomicx.StripedCounter

	// uniformBytes is the per-object footprint when every ref weighs the
	// same (retiredBytes == nil); 0 when class-aware stripes are active.
	uniformBytes int64

	// classBytes maps Ref.Class() to the block footprint in bytes, resolved
	// once at construction from the allocator (ClassFootprints when the
	// allocator has byte classes, SlotBytes for every class otherwise, 1 as
	// a last resort so the accounting still counts objects).
	classBytes [mem.NumClasses]int64

	// orphans holds retired objects abandoned by unregistered sessions that
	// were still protected at exit time; the next scanning session adopts
	// them. orphanLoad lets scanners skip the lock when the pool is empty.
	orphanMu   sync.Mutex
	orphans    []mem.Ref
	orphanLoad atomic.Int64

	// freeGuard, when non-nil, observes every ref the domain is about to
	// free on its reclamation paths (scan passes and inline frees, not
	// quiescent DrainAll teardown). schedtest's freed-while-protected
	// oracle installs itself here; production domains leave it nil.
	freeGuard func(mem.Ref)

	// poolHits/poolMisses count Acquire calls served from the handle pool
	// versus falling through to a fresh Register. Cold-path counters (both
	// sit under mu's shadow), so plain atomics rather than stripes.
	poolHits   atomic.Int64
	poolMisses atomic.Int64

	// obsDom, when non-nil, is the attached observability domain. Like
	// Cfg.Instrument it is attached at construction time, before any session
	// registers, and makeHandle folds both into each session's probe.
	// obsEraClock/obsEraDecode are the scheme's era view, installed by
	// SetObsEraView for schemes that have a global clock; EnableObs turns
	// them into the domain's era-lag gauges.
	obsDom       *obs.Domain
	obsEraClock  func() uint64
	obsEraDecode func(words []atomicx.PaddedUint64) (era uint64, ok bool)

	// tracer is the per-ref lifecycle tracer cached off obsDom (nil unless
	// the obs domain was built with Trace.Enabled) for the hooks that run
	// without a session: TraceAlloc and the quiescent freeAt. Session hooks
	// reach the same tracer through their probe.
	tracer *obs.Tracer
}

// SetFreeGuard installs (or, with nil, removes) the reclamation-path free
// observer. Construction/setup time only — the field is read without
// synchronization by every freeing session.
func (b *Base) SetFreeGuard(g func(mem.Ref)) { b.freeGuard = g }

// SetObsEraView installs the scheme's era view for the observability layer:
// clock reads the global era/epoch/version clock, decode extracts the
// oldest era a slot's published cells currently pin (ok=false for idle
// slots). Scheme constructors with a global clock (HE, IBR, EBR, URCU) call
// this; schemes without one (HP, RC, leak) skip it and export no era-lag
// gauges. Construction time only.
func (b *Base) SetObsEraView(clock func() uint64, decode func(words []atomicx.PaddedUint64) (era uint64, ok bool)) {
	b.obsEraClock = clock
	b.obsEraDecode = decode
}

// Observe attaches a fresh observability domain named name, configured by
// oc, to hub and wires d's sources into it. Schemes without EnableObs are
// left uninstrumented. Like EnableObs it runs at construction time only.
func Observe(d Domain, hub *obs.Hub, name string, oc obs.Config) {
	e, ok := d.(interface{ EnableObs(*obs.Domain) })
	if !ok {
		return
	}
	od := obs.NewDomain(name, oc)
	e.EnableObs(od)
	hub.Attach(od)
}

// EnableObs attaches an observability domain: statistics, era-lag gauges
// and per-object byte accounting flow out through d, and every session
// registered from now on carries a probe holding d's flight-recorder ring,
// scan-latency stripe and tracer. Call at construction time, before
// the first Register/Acquire — handles made earlier stay uninstrumented.
// The method is promoted through embedding, so any scheme satisfies
// interface{ EnableObs(*obs.Domain) }.
func (b *Base) EnableObs(d *obs.Domain) {
	b.obsDom = d
	if d == nil {
		return
	}
	d.SetStatsSource(func() obs.Stats {
		s := b.Dom.Stats()
		return obs.Stats{
			Retired:      s.Retired,
			Freed:        s.Freed,
			Pending:      s.Pending,
			PendingBytes: s.PendingBytes,
			PeakPending:  s.PeakPending,
			Scans:        s.Scans,
			EraClock:     s.EraClock,
			PoolHits:     s.PoolHits,
			PoolMisses:   s.PoolMisses,
		}
	})
	if sb, ok := b.Alloc.(interface{ SlotBytes() uintptr }); ok {
		d.SetObjectBytes(uint64(sb.SlotBytes()))
	}
	if cs, ok := b.Alloc.(interface{ ClassStats() []mem.ClassStat }); ok {
		d.SetClassSource(cs.ClassStats)
	}
	b.fitRegistry(int(b.issued.Load()))
	if tr := d.Tracer(); tr != nil {
		b.tracer = tr
		// The arena is the true allocation point (OnAlloc is publish, not
		// alloc), so the sampling decision hooks in there: nil-gated, and
		// only hash-sampled refs reach the tracer.
		if ah, ok := b.Alloc.(interface{ SetAllocHook(func(int, mem.Ref)) }); ok {
			ah.SetAllocHook(func(shard int, ref mem.Ref) {
				if r := uint64(ref.Unmarked()); tr.Sampled(r) {
					tr.Alloc(r, shard)
				}
			})
		}
	}
	if b.obsEraClock != nil && b.obsEraDecode != nil {
		d.SetEraSource(b.obsEraClock, func(yield func(session int, era uint64)) {
			walk := b.Sessions()
			for slots := walk.Next(); slots != nil; slots = walk.Next() {
				for i := range slots {
					s := &slots[i]
					if era, ok := b.obsEraDecode(s.words); ok {
						yield(s.id, era)
					}
				}
			}
		})
	}
}

// TraceAlloc records the publish event of a sampled ref's lifecycle span:
// schemes call it from OnAlloc (the moment the object becomes shared),
// passing the birth era they stamped — zero for schemes without a clock.
// One untaken branch when tracing is off.
func (b *Base) TraceAlloc(ref mem.Ref, birthEra uint64) {
	tr := b.tracer
	if tr == nil {
		return
	}
	if r := uint64(ref.Unmarked()); tr.Sampled(r) {
		tr.Publish(r, birthEra, -1)
	}
}

// NewBase initializes the shared state for a scheme. wordsPerSlot is the
// number of published cells per session slot (protection indices for HE/HP,
// 1 for EBR/URCU announcements, 2 for IBR intervals, 0 for schemes with no
// published state); initWord is the idle sentinel those cells hold whenever
// the slot is unregistered, pooled, or outside a critical section.
func NewBase(alloc Allocator, cfg Config, wordsPerSlot int, initWord uint64) (b Base) {
	cfg = cfg.Defaulted()
	sharded, _ := alloc.(shardedAllocator)
	first := newSlotBlock(0, cfg.MaxThreads, wordsPerSlot, initWord)
	// Resolve the byte-accounting mode: heterogeneous footprints (an arena
	// with byte classes) activate the per-ref striped byte counters; a
	// single-class allocator keeps them nil and derives PendingBytes as
	// Pending×uniformBytes at snapshot time, costing the retire/free hot
	// paths nothing.
	var classBytes [mem.NumClasses]int64
	uniform := int64(0)
	if src, ok := alloc.(interface{ ClassFootprints() []uintptr }); ok {
		for c, fp := range src.ClassFootprints() {
			if c < len(classBytes) {
				classBytes[c] = int64(fp)
			}
		}
	}
	if classBytes == ([mem.NumClasses]int64{}) {
		uniform = 1
		if src, ok := alloc.(interface{ SlotBytes() uintptr }); ok {
			uniform = int64(src.SlotBytes())
		}
		for c := range classBytes {
			classBytes[c] = uniform
		}
	}
	var retiredBytes, freedBytes *atomicx.StripedCounter
	if uniform == 0 {
		retiredBytes = atomicx.NewStripedCounter(cfg.MaxThreads)
		freedBytes = atomicx.NewStripedCounter(cfg.MaxThreads)
	}
	// Filled via the named result (not a local later copied out): Base
	// holds mutexes and atomics, and returning a local by value trips
	// vet's copylocks even though the construction-time copy is benign.
	b = Base{
		Alloc:        alloc,
		Cfg:          cfg,
		sharded:      sharded,
		head:         first,
		tail:         first,
		total:        cfg.MaxThreads,
		wordsPerSlot: wordsPerSlot,
		initWord:     initWord,
		retired:      atomicx.NewStripedCounter(cfg.MaxThreads),
		freed:        atomicx.NewStripedCounter(cfg.MaxThreads),
		scans:        atomicx.NewStripedCounter(cfg.MaxThreads),
		retiredBytes: retiredBytes,
		freedBytes:   freedBytes,
		uniformBytes: uniform,
		classBytes:   classBytes,
		scanPer:      max(cfg.ScanR, 1) * cfg.Slots,
	}
	return
}

// newSlotBlock builds an unpublished block whose slots have ids
// [firstID, firstID+n) and every published cell set to initWord. All
// initialization happens before the block becomes reachable, so scans never
// observe a partially built slot.
func newSlotBlock(firstID, n, wordsPerSlot int, initWord uint64) *SlotBlock {
	blk := &SlotBlock{slots: make([]Slot, n)}
	words := make([]atomicx.PaddedUint64, n*wordsPerSlot)
	for i := range blk.slots {
		s := &blk.slots[i]
		s.id = firstID + i
		s.words = words[i*wordsPerSlot : (i+1)*wordsPerSlot : (i+1)*wordsPerSlot]
		if initWord != 0 {
			for w := range s.words {
				s.words[w].Store(initWord)
			}
		}
	}
	return blk
}

// Sessions opens a walk over the slots of every session id handed out so
// far, in id order. It loads the issued count first and only then walks the
// chain, which is what keeps a walk that stops at the count safe (see the
// growth protocol in handle.go). Every scan, epoch advance, grace-period
// wait and era-lag gauge walks the registry through it.
func (b *Base) Sessions() SlotWalk {
	return SlotWalk{blk: b.head, left: int(b.issued.Load())}
}

// Register opens a session: it reuses a recycled slot if one is free,
// otherwise takes the next slot of the tail block, otherwise grows the
// chain by publishing a new block that doubles total capacity. It never
// fails. The returned Handle dispatches to b.Dom.
func (b *Base) Register() *Handle {
	b.mu.Lock()
	var s *Slot
	if n := len(b.freeSlots); n > 0 {
		s = b.freeSlots[n-1]
		b.freeSlots = b.freeSlots[:n-1]
	} else {
		if b.tailUsed == len(b.tail.slots) {
			grown := newSlotBlock(b.total, b.total, b.wordsPerSlot, b.initWord)
			b.tail.next.Store(grown) // publication point: block is complete
			b.tail = grown
			b.total += len(grown.slots)
			b.tailUsed = 0
		}
		s = &b.tail.slots[b.tailUsed]
		b.tailUsed++
		// After any growth's publication, before the session can act.
		b.issued.Store(int64(s.id + 1))
		b.fitRegistry(s.id + 1)
	}
	b.active.Add(1)
	b.mu.Unlock()
	h := b.makeHandle(s)
	h.probe.event(obs.EvRegister)
	return h
}

// makeHandle builds a fresh Handle around s with every hot-path pointer
// cached. Scratch fields start zeroed (= noneEra / NilRef), matching the
// idle published cells.
func (b *Base) makeHandle(s *Slot) *Handle {
	h := &Handle{
		dom:        b.Dom,
		base:       b,
		slot:       s,
		Words:      s.words,
		retStripe:  b.retired.Stripe(s.id),
		freeStripe: b.freed.Stripe(s.id),
		scanStripe: b.scans.Stripe(s.id),
		eraClock:   b.EraClock,
	}
	// Byte stripes stay nil for uniform-footprint allocators — the hot paths
	// nil-check and skip (same gating pattern as the probe).
	if b.retiredBytes != nil {
		h.retBytesStripe = b.retiredBytes.Stripe(s.id)
		h.freeBytesStripe = b.freedBytes.Stripe(s.id)
	}
	if n := b.Cfg.Slots; n > 0 {
		// Capacity rounded up to whole cache lines: Protect and EndOp write
		// Held on every operation, and a smaller array would share its line
		// with the next session's, allocated right after it.
		perLine := atomicx.CacheLineSize / 8
		h.Held = make([]uint64, n, (n+perLine-1)/perLine*perLine)
	}
	h.probe = newProbe(s.id, b.Cfg.Instrument, b.obsDom)
	return h
}

// Acquire returns a pooled session parked by Release, or registers a new
// one. The pooled handle keeps its slot, retired list and cached stripes.
func (b *Base) Acquire() *Handle {
	b.mu.Lock()
	if n := len(b.pool); n > 0 {
		h := b.pool[n-1]
		b.pool = b.pool[:n-1]
		b.active.Add(1)
		b.mu.Unlock()
		b.poolHits.Add(1)
		h.probe.event(obs.EvAcquire)
		return h
	}
	b.mu.Unlock()
	b.poolMisses.Add(1)
	return b.Register()
}

// Release drops h's protections (via the scheme's EndOp) and parks the live
// session in the pool for Acquire. The retired list stays with the slot; a
// future owner's scans will drain it, and DrainAll reaches it regardless.
//
// The owner-only scratch (Held, Lo/Hi, RetireCount, the retires since the
// last scan) is cleared here, not left for the next Acquire: EndOp resets
// the *published* cells but not their owner-side mirrors, and a stale
// mirror poisons the next session — an HE min/max envelope would extend
// protection to eras the new owner never held, a leftover RetireCount
// skews its k-advance cadence, and a leftover retire count would scan
// before the new owner's H-th retire. This matches Register, whose fresh
// handles start zeroed.
func (b *Base) Release(h *Handle) {
	b.Dom.EndOp(h)
	for i := range h.Held {
		h.Held[i] = 0
	}
	h.Lo, h.Hi = 0, 0
	h.RetireCount, h.unscanned = 0, 0
	h.probe.event(obs.EvRelease)
	b.mu.Lock()
	b.pool = append(b.pool, h)
	b.active.Add(-1)
	b.mu.Unlock()
}

// Unregister permanently closes h's session: the published cells return to
// the idle sentinel and the slot is recycled for a future Register. Schemes
// that keep retired lists override this to run a final scan and Abandon the
// leftovers first, then call back here.
func (b *Base) Unregister(h *Handle) {
	s := h.slot
	for w := range s.words {
		s.words[w].Store(b.initWord)
	}
	h.probe.event(obs.EvUnregister)
	b.mu.Lock()
	b.freeSlots = append(b.freeSlots, s)
	b.active.Add(-1)
	b.mu.Unlock()
}

// ActiveThreads reports the number of live (registered, unpooled) sessions.
func (b *Base) ActiveThreads() int { return int(b.active.Load()) }

// Capacity reports the total slot count across all published blocks.
func (b *Base) Capacity() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// SetScanThreshold replaces the ScanR rule with an absolute trigger: a
// session scans once it has retired n objects since its last scan (values
// below 1 mean 1, the paper's scan on every retire). Construction time
// only, before the first Register: scheme options with absolute semantics
// (hp.WithScanThreshold) call it from the scheme constructor.
func (b *Base) SetScanThreshold(n int) {
	b.scanThreshold = max(n, 1)
}

// scanBatch is the number of retires since its last scan at which a
// session scans when n session ids have been issued.
func (b *Base) scanBatch(n int) int {
	if b.scanThreshold > 0 {
		return b.scanThreshold
	}
	return b.scanPer * n
}

// fitRegistry re-derives, for n issued session ids, the health monitor's
// Equation-1 pending budget; Register calls it whenever the count grows.
// The budget tolerates every session's scanBatch(n) unscanned retires plus
// the objects its published slots can pin, doubled for fold skew.
// Engineering headroom, not the paper's exact constant: the monitor wants
// "pending grew past anything the parameters explain", and the
// stalled-reader runaway crosses any fixed multiple.
func (b *Base) fitRegistry(n int) {
	if d := b.obsDom; d != nil && n > 0 {
		batch := int64(b.scanBatch(n))
		d.SetBudget(2 * b.classBytes[0] * int64(n) * (batch + 2*int64(b.Cfg.Slots)))
	}
}

// observePeak folds retired-freed and raises the high-water mark. Same
// fold-order/clamp discipline as BaseStats: see pendingFold.
func (b *Base) observePeak() {
	b.peak.Observe(b.pendingFold())
}

// pendingFold reads the freed stripes before the retired stripes and clamps
// the difference at zero. The two folds are not atomic with respect to
// concurrent sessions: with the old retired-then-freed order, a free
// landing between the folds was counted while its (earlier) retire was not,
// so Pending could read below its true value — and below zero near an empty
// domain. Folding freed first inverts the race (a retire landing between
// folds is counted while its free cannot be yet), which only ever biases
// the transient reading high; the clamp covers the residual skew from
// StripedCounter's own non-atomic stripe walk.
//
// Only ids below the issued count have ever written a stripe, so both folds
// stop at the stripes those ids map to (StripedCounter.SumFirst).
func (b *Base) pendingFold() int64 {
	n := int(b.issued.Load())
	freed := b.freed.SumFirst(n)
	retired := b.retired.SumFirst(n)
	if pending := retired - freed; pending > 0 {
		return pending
	}
	return 0
}

// abandon moves s's remaining retired objects to the shared orphan pool.
func (b *Base) abandon(s *Slot) {
	leftovers := s.rl.refs
	s.rl.refs = nil
	if len(leftovers) == 0 {
		return
	}
	b.orphanMu.Lock()
	b.orphans = append(b.orphans, leftovers...)
	b.orphanLoad.Store(int64(len(b.orphans)))
	b.orphanMu.Unlock()
}

// DrainAll unconditionally frees every pending retired object in every
// slot's list (registered, pooled, or recycled) and the orphan pool. Only
// safe at quiescence (the paper's destructor). Pooled handles need no
// special casing: Release keeps the retired list with the slot, and the
// walk visits every slot whether its session is registered, pooled, or
// recycled.
func (b *Base) DrainAll() {
	walk := b.Sessions()
	for slots := walk.Next(); slots != nil; slots = walk.Next() {
		for i := range slots {
			s := &slots[i]
			for _, ref := range s.rl.refs {
				b.freeAt(s.id, ref)
			}
			s.rl.refs = nil
		}
	}
	b.orphanMu.Lock()
	orphans := b.orphans
	b.orphans = nil
	b.orphanLoad.Store(0)
	b.orphanMu.Unlock()
	for _, ref := range orphans {
		b.freeAt(0, ref)
	}
}

// Close shuts the domain down at quiescence, freeing every pending retired
// object and leaving Stats().Pending == 0. It is the paper's destructor
// under its conventional name; promoted through embedding, every scheme
// satisfies interface{ Close() }.
func (b *Base) Close() { b.Dom.Drain() }

// refBytes returns the class-aware footprint of the block ref names.
func (b *Base) refBytes(ref mem.Ref) int64 {
	return b.classBytes[ref.Class()&(mem.NumClasses-1)]
}

// FreeAt frees ref through the allocator on behalf of slot id, bumping the
// freed stripes, without requiring a live Handle. Schemes whose pending
// objects live outside slot retired lists (Hyaline's distributed batches)
// use it from their Drain override, where DrainAll's registry walk cannot
// see the objects. Quiescence-only, like DrainAll: it skips the free-guard
// oracle exactly as the drain path does.
func (b *Base) FreeAt(id int, ref mem.Ref) { b.freeAt(id, ref) }

// freeAt frees ref through the allocator (into shard's magazine when
// sharded) and bumps the freed stripes for that id.
func (b *Base) freeAt(id int, ref mem.Ref) {
	if b.sharded != nil {
		b.sharded.FreeAt(id, ref)
	} else {
		b.Alloc.Free(ref)
	}
	b.freed.Inc(id)
	if b.freedBytes != nil {
		b.freedBytes.Add(id, b.refBytes(ref))
	}
	if tr := b.tracer; tr != nil {
		if r := uint64(ref.Unmarked()); tr.Sampled(r) {
			tr.Free(r, id)
		}
	}
}

// BaseStats assembles the common statistics snapshot. The fold doubles as a
// peak observation so PeakPending can never read below the Pending it
// reports alongside. Pending folds freed-before-retired and clamps at zero
// (see pendingFold) so a concurrent retire/free landing between the stripe
// folds can never drive the reading negative.
func (b *Base) BaseStats() Stats {
	n := int(b.issued.Load()) // fold bound, as in pendingFold
	freed := b.freed.SumFirst(n)
	retired := b.retired.SumFirst(n)
	pending := retired - freed
	if pending < 0 {
		pending = 0
	}
	// Byte pending: exact product for uniform footprints, striped fold (same
	// freed-before-retired order and clamp) when class-aware.
	var pendingBytes int64
	if b.retiredBytes == nil {
		pendingBytes = pending * b.uniformBytes
	} else {
		freedBytes := b.freedBytes.SumFirst(n)
		retiredBytes := b.retiredBytes.SumFirst(n)
		pendingBytes = retiredBytes - freedBytes
		if pendingBytes < 0 {
			pendingBytes = 0
		}
	}
	b.peak.Observe(pending)
	return Stats{
		Retired:      retired,
		Freed:        freed,
		Pending:      pending,
		PendingBytes: pendingBytes,
		PeakPending:  b.peak.Max(),
		Scans:        b.scans.SumFirst(n),
		PoolHits:     b.poolHits.Load(),
		PoolMisses:   b.poolMisses.Load(),
	}
}
