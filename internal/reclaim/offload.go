package reclaim

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/schedtest"
)

// This file implements the background reclamation offload: an opt-in
// per-domain pipeline that takes scan+free work off application threads.
//
// The retire path's remaining cost after amortization is the scan itself:
// the retire that trips the scan trigger stalls its caller for a full
// sorted-snapshot walk plus a batch of frees. With offload enabled, that
// session instead hands its full retired batch to a background reclaimer
// through a lock-free MPSC segment queue and returns immediately; N worker
// goroutines — each a registered session of the same domain, so the scheme's
// existing scan pass and FreeBatchAt frees (and the SetFreeGuard oracle
// hook) apply unchanged — partition the handoffs and reclaim in parallel.
//
// # Handoff protocol and memory ordering
//
// Each worker owns one Treiber-style intrusive stack of fixed-size segments
// (offStack). Producers CAS-push; ONLY the owning worker ever removes, and
// it removes everything at once with a single Swap(nil). Single-consumer
// detach-all is what makes recycled segments safe: the classic Treiber ABA
// hazard needs a concurrent pop to observe a stale head/next pair, and a
// Swap has no expected-value to be stale about. Segment recycling goes
// through a small mutex-guarded pool — one lock round-trip per ~threshold
// retires is cold by construction, and it keeps the steady state
// allocation-free without reintroducing a CAS-pop anywhere.
//
// Publication is the standard Go-atomics (seq-cst) argument: a producer
// fully writes seg.{refs,n,t0} before the head CAS publishes the segment,
// and the consumer's Swap(nil) load of head synchronizes with that CAS, so
// every segment the consumer walks is complete. The queued gauges are
// incremented before the push and decremented by the worker only after its
// scan returns, so the watermark check conservatively over-counts in-flight
// work — backpressure can only trip early, never late.
//
// # Backpressure (robustness)
//
// TryOffload refuses a handoff once the queued bytes (summed per ref from
// the allocator's class footprints, so variable-size payloads weigh their
// true size) reach the watermark, bumping the fallback counter; the caller
// then scans inline exactly as in offload-disabled mode. Bounded-memory
// guarantee: pending bytes never exceed the watermark plus what inline mode
// itself would hold, so the paper's Equation 1 bound degrades to a
// configurable factor of itself rather than growing without bound when the
// reclaimer lags. The
// default watermark is offWatermarkMultiple × the unscanned objects the
// inline scan trigger lets every issued session hold (scan batch × issued
// sessions) × the arena slot size, re-derived as sessions register; a
// configured watermark and the worker count are fixed at construction.
//
// # Shutdown
//
// Drain/DrainAll (quiescence only, like the paper's destructor) stops the
// pipeline deterministically: mark stopped (new handoffs fall back inline
// forever), close the stop channel, and wait for workers — each drains its
// queue a final time, scans, and unregisters, abandoning survivors to the
// orphan pool. Any segment pushed after a worker's last drain is flushed
// directly by DrainAll before the registry walk, so Stats.Pending reads 0.

// OffloadConfig configures a domain's background reclamation pipeline.
// The zero value disables offloading entirely (no goroutines, no queues;
// TryOffload is a nil check).
type OffloadConfig struct {
	// Workers is the number of background reclaimer goroutines. 0 disables
	// offloading; negative values are treated as 0.
	Workers int
	// WatermarkBytes is the backpressure threshold: when the bytes queued
	// for background reclamation (summed per ref from the allocator's
	// class-aware footprints) reach it, TryOffload fails and the retiring
	// session scans inline. 0 derives offWatermarkMultiple × scan batch ×
	// issued sessions × slot bytes, following the registry as it grows.
	WatermarkBytes int64
}

// offWatermarkMultiple scales the default watermark: the offload pipeline may
// hold at most this many times the retired-list memory the inline
// Equation 1 bound already tolerates.
const offWatermarkMultiple = 8

// Scanner is the scheme-side entry point the background reclaimers dispatch
// through: one reclamation pass over h's retired list, keeping survivors in
// place. Every scheme with a retired list exports it (HE, HP, EBR, URCU,
// IBR); schemes without one (RC, leak) don't, and their domains never
// offload.
type Scanner interface {
	Scan(h *Handle)
}

// offSegCap is the segment payload size. 64 refs = 512 bytes of payload per
// segment; a handoff of one scan threshold's worth of refs uses a handful.
const offSegCap = 64

// offSpinNs bounds the post-batch poll window of a reclaimer before it
// parks on its notify channel (see the spin loop in run).
const offSpinNs = 100_000

// offIdleNs is the arrival-gap threshold beyond which a worker skips the
// spin window and parks immediately: when batches arrive more than this far
// apart, the spin can never bridge to the next batch, so it only burns the
// producer's processor (the spin-then-park waste at low retire rates).
const offIdleNs = 10 * offSpinNs

// offSegment is one queue link. All fields except next are written only
// before publication (CAS into a queue) and read only after detach.
type offSegment struct {
	next  atomic.Pointer[offSegment]
	n     int
	bytes int64 // class-aware footprint of refs[:n], for the byte gauge
	t0    int64 // obs.Now() at handoff, for the offload-latency histogram
	refs  [offSegCap]mem.Ref
}

// offStack is one worker's MPSC handoff queue: multi-producer CAS push,
// single-consumer Swap(nil) detach-all. Padded so adjacent workers' heads
// never false-share.
type offStack struct {
	head atomic.Pointer[offSegment]
	// depth counts refs queued on this stack but not yet detached by the
	// worker — a per-worker gauge for the scheme-deep telemetry (the global
	// queuedRefs gauge cannot attribute backlog to a worker). Incremented
	// before the push and decremented after detach, so like the byte gauge it
	// only ever over-counts in-flight work.
	depth atomic.Int64
	_     atomicx.CacheLinePad
}

// push publishes seg and reports whether the queue was empty, i.e. whether
// the consumer may be parked and needs a wake. Pushes onto a non-empty queue
// are covered by the wake (or the active drain) of the push that emptied it.
func (q *offStack) push(seg *offSegment) (wasEmpty bool) {
	for {
		old := q.head.Load()
		seg.next.Store(old)
		if q.head.CompareAndSwap(old, seg) {
			return old == nil
		}
		schedtest.Point(schedtest.PointCAS)
	}
}

func (q *offStack) detach() *offSegment { return q.head.Swap(nil) }

// offloader is the per-domain background reclamation state, owned by Base.
type offloader struct {
	// workers is fixed at construction, and so is watermark when
	// configured. Otherwise slotBytes is positive and Base.fitRegistry
	// re-derives the watermark from it whenever the issued count grows.
	workers   int
	slotBytes int64
	watermark atomic.Int64

	// parked counts workers blocked on their notify channel. A parked
	// worker is headroom, not load: obs.Monitor's offload-saturation
	// invariant excludes it from the busy-worker figure stats() reports.
	parked atomic.Int32

	// classBytes maps Ref.Class() to block footprint (same table as
	// Base.classBytes); tryOffload sums it per segment so the watermark
	// compares true queued bytes, not refs × a single slot size.
	classBytes [mem.NumClasses]int64

	queues []offStack
	notify []chan struct{} // 1-buffered wakeup semaphores, one per worker

	// queuedRefs/queuedBytes count work handed off but not yet reclaimed by
	// a worker (incremented before push, decremented after the worker's
	// scan). queuedBytes is class-aware and drives the watermark check.
	queuedRefs  atomic.Int64
	queuedBytes atomic.Int64
	handoffs    atomic.Int64
	fallbacks   atomic.Int64

	// Segment recycling pool. Mutex-guarded on purpose: one push+pop pair
	// per ~threshold retires is cold, and a lock-free pop would reintroduce
	// the Treiber ABA problem the queue design just avoided.
	segMu   sync.Mutex
	segPool []*offSegment

	// Lazy start: workers launch on the first successful TryOffload, by
	// which time the scheme constructor has set Base.Dom (NewBase returns
	// Base by value, so the offloader cannot capture the domain earlier).
	startMu sync.Mutex
	started atomic.Bool
	stopped atomic.Bool // terminal; set by shutdown or a non-Scanner domain
	stop    chan struct{}
	wg      sync.WaitGroup
}

// newOffloader builds the pipeline state (no goroutines yet). Returns nil
// when cfg disables offloading.
func newOffloader(cfg OffloadConfig, alloc Allocator, classBytes [mem.NumClasses]int64) *offloader {
	if cfg.Workers <= 0 {
		return nil
	}
	// The typed class-0 footprint anchors the DEFAULT watermark derivation
	// — Equation 1 is stated in nodes, and the typed class is what
	// structures retire at threshold cadence — while the queued-bytes gauge
	// itself is class-aware via classBytes.
	o := &offloader{
		workers:    cfg.Workers,
		classBytes: classBytes,
		queues:     make([]offStack, cfg.Workers),
		notify:     make([]chan struct{}, cfg.Workers),
	}
	o.watermark.Store(cfg.WatermarkBytes)
	if cfg.WatermarkBytes <= 0 {
		o.slotBytes = 1
		if sb, ok := alloc.(interface{ SlotBytes() uintptr }); ok {
			o.slotBytes = max(int64(sb.SlotBytes()), 1)
		}
	}
	for i := range o.notify {
		o.notify[i] = make(chan struct{}, 1)
	}
	return o
}

// fit sizes the default watermark to unscanned, the objects the inline
// scan trigger lets every issued session hold at once, and returns the
// watermark in force.
func (o *offloader) fit(unscanned int64) int64 {
	if o.slotBytes > 0 {
		o.watermark.Store(offWatermarkMultiple * unscanned * o.slotBytes)
	}
	return o.watermark.Load()
}

// tryOffload hands h's entire retired list to the pipeline. It returns
// false — caller must scan inline — when the pipeline is stopped, the
// domain is not a Scanner, or the watermark is reached (backpressure).
func (o *offloader) tryOffload(h *Handle) bool {
	if o.stopped.Load() {
		return false
	}
	if o.queuedBytes.Load() >= o.watermark.Load() {
		o.fallbacks.Add(1)
		return false
	}
	if !o.started.Load() && !o.ensureStarted(h.base) {
		return false
	}
	refs := h.Retired()
	if len(refs) == 0 {
		return true
	}
	// Count the whole batch as queued before the first push so a concurrent
	// watermark check can only over-estimate the backlog.
	batchBytes := int64(0)
	for _, ref := range refs {
		batchBytes += o.classBytes[ref.Class()&(mem.NumClasses-1)]
	}
	o.queuedRefs.Add(int64(len(refs)))
	o.queuedBytes.Add(batchBytes)
	t0 := h.ObsNow() // only the offload-latency histogram reads it
	// Session affinity: one session's handoffs always land on the same
	// worker, so a burst batches into a single detach and the selection
	// costs no shared atomic.
	i := h.slot.id % o.workers
	q := &o.queues[i]
	for len(refs) > 0 {
		seg := o.getSegment()
		n := copy(seg.refs[:], refs)
		seg.n = n
		seg.bytes = 0
		for _, ref := range seg.refs[:n] {
			seg.bytes += o.classBytes[ref.Class()&(mem.NumClasses-1)]
			h.TraceHandoff(ref, uint64(i))
		}
		seg.t0 = t0
		refs = refs[n:]
		q.depth.Add(int64(n))
		if q.push(seg) {
			o.wake(i)
		}
	}
	o.handoffs.Add(1)
	h.SetRetired(h.Retired()[:0])
	h.unscanned = 0 // the handoff is this session's scan pass
	return true
}

// ensureStarted launches the worker goroutines once. Returns false when the
// pipeline cannot run (already shut down, or the domain has no Scan).
func (o *offloader) ensureStarted(b *Base) bool {
	o.startMu.Lock()
	defer o.startMu.Unlock()
	if o.stopped.Load() {
		return false
	}
	if o.started.Load() {
		return true
	}
	sc, ok := b.Dom.(Scanner)
	if !ok {
		// The scheme cannot scan on demand (RC, leak): offloading is
		// permanently inline for this domain.
		o.stopped.Store(true)
		return false
	}
	o.stop = make(chan struct{})
	for i := 0; i < o.workers; i++ {
		o.wg.Add(1)
		go o.run(b, sc, i)
	}
	o.started.Store(true)
	return true
}

// wake nudges worker i; the 1-buffered channel coalesces bursts and the
// non-blocking send can never lose a wakeup (a full buffer already
// guarantees a future drain that follows this push in the seq-cst order).
func (o *offloader) wake(i int) {
	select {
	case o.notify[i] <- struct{}{}:
	default:
	}
}

func (o *offloader) getSegment() *offSegment {
	o.segMu.Lock()
	if n := len(o.segPool); n > 0 {
		seg := o.segPool[n-1]
		o.segPool = o.segPool[:n-1]
		o.segMu.Unlock()
		seg.next.Store(nil)
		seg.n = 0
		return seg
	}
	o.segMu.Unlock()
	return &offSegment{}
}

func (o *offloader) putSegment(seg *offSegment) {
	o.segMu.Lock()
	o.segPool = append(o.segPool, seg)
	o.segMu.Unlock()
}

// run is one background reclaimer: a registered session of the domain that
// folds handed-off batches into its own retired list and runs the scheme's
// ordinary scan pass — same snapshot walk, same FreeBatchAt frees, same
// freeGuard oracle hook as an inline scan. Survivors stay in the worker's
// list and are retried on the next batch; Unregister's final scan + Abandon
// handles the tail at shutdown.
func (o *offloader) run(b *Base, sc Scanner, i int) {
	defer o.wg.Done()
	schedtest.BeginBystander()
	defer schedtest.EndBystander()
	h := b.Register()
	defer b.Dom.Unregister(h)
	q := &o.queues[i]
	// Adaptive spin: after each batch the worker polls its queue for a short
	// window before parking on the notify channel. Waking a parked goroutine
	// costs the producer ~1µs in the scheduler — paid on the retire path,
	// exactly the latency this pipeline exists to remove. While the worker
	// spins, the producer's wake is elided entirely (the queue stays
	// non-empty through the spin, so pushes see no empty→non-empty
	// transition), and sustained traffic never parks. Spinning only helps
	// when the reclaimers have processors of their own; without that
	// headroom a yielding spinner just context-switches against the
	// producers it is supposed to unburden, so the window collapses to zero
	// and workers park immediately. It also only helps when traffic is
	// dense: once batches arrive further apart than offIdleNs, the window
	// can never bridge the gap, so the worker parks without spinning.
	gmp := runtime.GOMAXPROCS(0)
	lastWork := obs.Now()
	for {
		spin := int64(offSpinNs)
		if gmp <= o.workers || obs.Now()-lastWork > offIdleNs {
			spin = 0
		}
		deadline := obs.Now() + spin
		for {
			if q.head.Load() != nil {
				o.drainQueue(h, sc, q)
				lastWork = obs.Now()
				deadline = lastWork + offSpinNs
				continue
			}
			if o.stopped.Load() {
				o.drainQueue(h, sc, q)
				return
			}
			if obs.Now() >= deadline {
				break
			}
			runtime.Gosched()
		}
		o.parked.Add(1)
		select {
		case <-o.notify[i]:
			o.parked.Add(-1)
			o.drainQueue(h, sc, q)
			lastWork = obs.Now()
		case <-o.stop:
			o.parked.Add(-1)
			o.drainQueue(h, sc, q)
			return
		}
	}
}

// drainQueue detaches everything queued for this worker, merges it into the
// worker session's retired list, and runs one scan pass over the union.
func (o *offloader) drainQueue(h *Handle, sc Scanner, q *offStack) {
	seg := q.detach()
	if seg == nil {
		return
	}
	total := 0
	totalBytes := int64(0)
	oldest := int64(-1)
	rl := h.Retired()
	for seg != nil {
		next := seg.next.Load()
		rl = append(rl, seg.refs[:seg.n]...)
		total += seg.n
		totalBytes += seg.bytes
		if oldest < 0 || seg.t0 < oldest {
			oldest = seg.t0
		}
		o.putSegment(seg)
		seg = next
	}
	h.SetRetired(rl)
	q.depth.Add(int64(-total))
	sc.Scan(h)
	o.queuedRefs.Add(int64(-total))
	o.queuedBytes.Add(-totalBytes)
	if p := h.probe; p != nil && p.off != nil && oldest > 0 {
		// Handoff-to-reclaimed latency of the oldest segment in the batch —
		// the figure backpressure tuning cares about. (oldest is 0 when the
		// batch was handed off before obs was attached.)
		p.off.Record(obs.Now() - oldest)
	}
}

// shutdown stops the pipeline deterministically: new handoffs fall back
// inline, workers drain their queues a final time and unregister, and any
// segment that slipped in after a worker's last detach is flushed here.
// Quiescence only (called from DrainAll).
func (o *offloader) shutdown(b *Base) {
	o.startMu.Lock()
	o.stopped.Store(true)
	// started is cleared so a later Drain (shutdown is re-entered on every
	// DrainAll) does not close stop twice; stopped stays set, so the
	// pipeline never restarts.
	wasStarted := o.started.Swap(false)
	o.startMu.Unlock()
	if wasStarted {
		close(o.stop)
		o.wg.Wait()
	}
	for i := range o.queues {
		for seg := o.queues[i].detach(); seg != nil; {
			next := seg.next.Load()
			for _, ref := range seg.refs[:seg.n] {
				b.freeAt(0, ref)
			}
			o.queuedRefs.Add(int64(-seg.n))
			o.queuedBytes.Add(-seg.bytes)
			o.queues[i].depth.Add(int64(-seg.n))
			o.putSegment(seg)
			seg = next
		}
	}
}

// stats snapshots the pipeline gauges for the observability layer. Workers
// is the busy count — live workers minus parked ones — because a parked
// worker is reclamation headroom, not reclamation load; counting it made
// the offload-saturation invariant under-report headroom. WorkersTotal is
// the configured worker count.
func (o *offloader) stats() obs.OffloadStats {
	q := o.queuedRefs.Load()
	if q < 0 {
		q = 0
	}
	qb := o.queuedBytes.Load()
	if qb < 0 {
		qb = 0
	}
	total := int64(o.workers)
	busy := total - int64(o.parked.Load())
	if busy < 0 {
		busy = 0
	}
	if busy > total {
		busy = total
	}
	return obs.OffloadStats{
		Workers:        busy,
		WorkersTotal:   total,
		QueuedRefs:     q,
		QueuedBytes:    qb,
		WatermarkBytes: o.watermark.Load(),
		Handoffs:       o.handoffs.Load(),
		Fallbacks:      o.fallbacks.Load(),
	}
}

// schemeMetrics exports the per-worker queue depths as a labeled gauge for
// the scheme-deep telemetry surface; registered with the obs domain by
// Base.EnableObs. The global queued gauges already live in OffloadStats —
// this series is what localizes a backlog to one worker (a hot session's
// affinity target) instead of the pipeline as a whole.
func (o *offloader) schemeMetrics() []obs.SchemeMetric {
	vals := make([]obs.LabeledValue, len(o.queues))
	maxDepth := int64(0)
	for i := range o.queues {
		d := o.queues[i].depth.Load()
		if d < 0 {
			d = 0
		}
		if d > maxDepth {
			maxDepth = d
		}
		vals[i] = obs.LabeledValue{Label: strconv.Itoa(i), Value: d}
	}
	return []obs.SchemeMetric{
		{
			Name:   "smr_offload_worker_queue_refs",
			Help:   "Refs queued per offload worker, awaiting background reclamation.",
			Kind:   "gauge",
			Label:  "worker",
			Values: vals,
		},
		{
			Name:  "smr_offload_worker_queue_refs_max",
			Help:  "Deepest per-worker offload queue (refs).",
			Kind:  "gauge",
			Value: maxDepth,
		},
	}
}

// ---- Handle / Base surface ----------------------------------------------

// TryOffload hands the session's retired batch to the domain's background
// reclamation pipeline. It returns false when the caller must reclaim
// inline instead: offloading disabled (the common case — one nil check),
// pipeline stopped, or watermark backpressure. Schemes call it at
// the scan trigger:
//
//	if h.ScanDue() && !h.TryOffload() {
//		d.scan(h)
//	}
func (h *Handle) TryOffload() bool {
	o := h.base.off
	if o == nil {
		return false
	}
	return o.tryOffload(h)
}

// Offloading reports whether the domain's background reclamation pipeline
// is configured and still accepting handoffs. Schemes whose inline path is
// not a scan (URCU synchronizes and frees on every retire) use it to decide
// whether to accumulate batches for handoff instead.
func (h *Handle) Offloading() bool {
	o := h.base.off
	return o != nil && !o.stopped.Load()
}

// OffloadStats returns the pipeline gauges, or zeros when offloading is
// disabled.
func (b *Base) OffloadStats() obs.OffloadStats {
	if b.off == nil {
		return obs.OffloadStats{}
	}
	return b.off.stats()
}

// Close shuts the domain down at quiescence: it stops the background
// reclamation pipeline (if any) and frees every pending retired object,
// leaving Stats().Pending == 0. It is the paper's destructor under its
// conventional name; promoted through embedding, every scheme satisfies
// interface{ Close() }.
func (b *Base) Close() { b.Dom.Drain() }
