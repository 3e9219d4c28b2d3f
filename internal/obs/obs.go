// Package obs is the reclamation observability layer: a nil-gated,
// allocation-free instrumentation substrate that turns the end-of-run
// aggregate reclaim.Stats into the time-resolved signals the paper's
// behavioural claims are actually about — pending-reclamation curves under a
// stalled reader (Figure 4 / Appendix A), era lag per session, and the
// latency tails of the protect, retire and scan paths.
//
// The enable/disable discipline mirrors internal/schedtest: an unobserved
// reclaim.Handle holds a nil probe and pays one untaken branch per hook;
// a domain becomes observable only when reclaim.Base.EnableObs attaches a
// *Domain built here, at construction time, before any session runs. Every
// recording structure is striped or single-writer-biased so an enabled
// domain adds no shared-cache-line traffic to the reclamation hot paths:
//
//   - Flight recorder (ring.go): per-session seqlock-entry rings of
//     reclamation events (retire, scan start/end, free, era advance, session
//     acquire/release/register/unregister), merged and time-ordered only at
//     snapshot time.
//   - Latency histograms (hist.go): HDR-style power-of-two log buckets for
//     the protect, retire and scan paths, striped by session id exactly like
//     atomicx.StripedCounter and folded on demand.
//   - Robustness gauges (this file): pending nodes and bytes, per-session
//     era lag against the scheme's global clock, and a stalled-session
//     detector flagging sessions that pin an era older than a configurable
//     threshold — the observable form of the paper's Equation 1.
//   - Exporter (hub.go, sampler.go): Prometheus text format and expvar JSON
//     over HTTP (with /debug/pprof mounted), plus a periodic sampler that
//     appends JSON-lines time series for offline plotting.
//
// Hot-path recordings are sampled: each session keeps a private tick counter
// and records one in every 2^SampleShift protect/retire brackets, so the
// enabled overhead stays a small fraction of the ~50ns retire path while the
// histograms still converge on the latency distribution. Scan events and
// batch frees are recorded unconditionally — scans are already amortized to
// one per ScanR·issued sessions·slots retires.
//
// The package depends only on the standard library, so reclaim (and through
// it every scheme) can import it without cycles; striping mirrors the
// power-of-two masking of internal/atomicx.StripedCounter without importing
// it.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors every timestamp this package produces; Now is monotonic
// (time.Since uses the runtime monotonic clock) and allocation-free.
var epoch = time.Now()

// Now returns nanoseconds since the process observability epoch.
func Now() int64 { return int64(time.Since(epoch)) }

// Config sizes a Domain's recording structures. Zero values take defaults.
type Config struct {
	// Sessions is the striping hint: rings and histogram stripes are sized
	// to the next power of two and indexed by session id & mask, exactly
	// like atomicx.StripedCounter — ids past the hint share stripes, which
	// costs a shared cache line, never correctness. Default 64 (matching
	// reclaim.Config.MaxThreads' default).
	Sessions int
	// RingEvents is the flight-recorder capacity per session ring (rounded
	// up to a power of two). Older events are overwritten. Default 256.
	RingEvents int
	// SampleShift gates the hot-path recordings: one protect/retire bracket
	// in every 2^SampleShift is timed and recorded. 0 means the default of
	// 6 (1 in 64); use SampleAll for exhaustive recording in tests.
	SampleShift uint
	// SampleAll disables sampling: every bracket is recorded. Test use.
	SampleAll bool
	// StallEras is the era-lag threshold of the stalled-session detector: a
	// session whose published era trails the global clock by at least this
	// many eras is counted in the Stalled gauge. Default 1024.
	StallEras uint64
	// Trace enables and sizes the sampled per-ref lifecycle tracer
	// (trace.go). Disabled by default: every trace hook in reclaim stays a
	// single untaken nil-pointer branch.
	Trace TraceConfig
}

func (c Config) defaulted() Config {
	if c.Sessions <= 0 {
		c.Sessions = 64
	}
	if c.RingEvents <= 0 {
		c.RingEvents = 256
	}
	if c.SampleShift == 0 && !c.SampleAll {
		c.SampleShift = 6
	}
	if c.SampleAll {
		c.SampleShift = 0
	}
	if c.StallEras == 0 {
		c.StallEras = 1024
	}
	return c
}

// Stats mirrors reclaim.Stats (plus the pool counters) without importing
// reclaim — the dependency points the other way. The wiring in reclaim
// installs a closure that converts its Stats into this one.
type Stats struct {
	Retired     int64  `json:"retired"`
	Freed       int64  `json:"freed"`
	Pending     int64  `json:"pending"`
	PeakPending int64  `json:"peak_pending"`
	Scans       int64  `json:"scans"`
	EraClock    uint64 `json:"era_clock"`
	PoolHits    int64  `json:"pool_hits"`
	PoolMisses  int64  `json:"pool_misses"`
	// PendingBytes is the domain's true class-aware pending footprint; 0
	// when the scheme predates byte accounting (the snapshot then falls back
	// to Pending × objBytes). Not serialized here — DomainSnapshot exports
	// the resolved value.
	PendingBytes int64 `json:"-"`
}

// ArenaClass mirrors mem.ClassStat without importing mem — one size class's
// occupancy and magazine-traffic gauges, exported as smr_arena_class_*.
type ArenaClass struct {
	Class     int   `json:"class"`
	Size      int   `json:"size"`
	Footprint int64 `json:"footprint"`
	Allocs    int64 `json:"allocs"`
	Frees     int64 `json:"frees"`
	Live      int64 `json:"live"`
	Slabs     int64 `json:"slabs"`
	Capacity  int64 `json:"capacity"`
	Spills    int64 `json:"spills"`
	Refills   int64 `json:"refills"`
}

// OffloadStats are the background-reclamation pipeline gauges a domain with
// offloading enabled exports: queue depth (refs and bytes), the backpressure
// watermark, and the handoff/inline-fallback counters. Mirrored here rather
// than imported for the same reason as Stats — reclaim depends on obs.
type OffloadStats struct {
	// Workers counts workers currently engaged in reclamation — parked
	// workers are headroom, not load, and are excluded so the monitor's
	// saturation invariant reads true busyness.
	Workers int64 `json:"workers"`
	// WorkersTotal is the configured worker-goroutine count.
	WorkersTotal   int64 `json:"workers_total"`
	QueuedRefs     int64 `json:"queued_refs"`
	QueuedBytes    int64 `json:"queued_bytes"`
	WatermarkBytes int64 `json:"watermark_bytes"`
	Handoffs       int64 `json:"handoffs"`
	Fallbacks      int64 `json:"fallbacks"`
}

// LabeledValue is one labelled sample of a scheme-deep metric (e.g. the
// handoff depth of one session, the queue depth of one worker).
type LabeledValue struct {
	Label string `json:"label"`
	Value int64  `json:"value"`
}

// SchemeMetric is one scheme-deep gauge or counter a domain exports beyond
// the generic reclamation set: Hyaline handoff-stack depths and batch
// ages, WFE helping counters, per-worker offload queue depths. Name is the
// full Prometheus series name (smr_*); Kind is "counter" or "gauge". A
// metric carries either a single Value or per-Label Values.
type SchemeMetric struct {
	Name   string         `json:"name"`
	Help   string         `json:"help,omitempty"`
	Kind   string         `json:"kind"`
	Label  string         `json:"label,omitempty"`
	Value  int64          `json:"value"`
	Values []LabeledValue `json:"values,omitempty"`
}

// Domain is one reclamation domain's observability state. It is built by
// NewDomain, configured by the reclaim wiring (SetStatsSource, SetEraSource,
// SetObjectBytes) and attached to a Hub for export. All recording entry
// points (Ring, stripe Record) are safe for concurrent use; all snapshot
// entry points may run concurrently with recording.
type Domain struct {
	name string
	cfg  Config

	rings    []Ring
	ringMask int

	protect *Histogram
	retire  *Histogram
	scan    *Histogram
	offload *Histogram // handoff-to-reclaimed latency (offload pipeline)

	// Per-ref lifecycle tracer; nil unless cfg.Trace.Enabled.
	tracer *Tracer

	// Installed by reclaim.Base.EnableObs; read by snapshots only.
	stats    func() Stats
	clock    func() uint64
	sessions func(yield func(session int, era uint64))
	offStats func() OffloadStats
	classes  func() []ArenaClass
	objBytes uint64
	budget   atomic.Int64

	srcMu      sync.Mutex
	schemeSrcs []func() []SchemeMetric

	// extDrops counts observability losses recorded outside the ring and
	// tracer (e.g. sampler marshal failures), folded into Dropped.
	extDrops atomic.Int64
}

// NewDomain builds the observability state for one reclamation domain.
// name is the scheme label every exported series carries.
func NewDomain(name string, cfg Config) *Domain {
	cfg = cfg.defaulted()
	n := 1
	for n < cfg.Sessions {
		n <<= 1
	}
	d := &Domain{
		name:     name,
		cfg:      cfg,
		rings:    make([]Ring, n),
		ringMask: n - 1,
		protect:  NewHistogram(cfg.Sessions),
		retire:   NewHistogram(cfg.Sessions),
		scan:     NewHistogram(cfg.Sessions),
		offload:  NewHistogram(cfg.Sessions),
	}
	for i := range d.rings {
		d.rings[i].init(cfg.RingEvents)
	}
	if cfg.Trace.Enabled {
		d.tracer = newTracer(cfg.Trace, cfg.Sessions)
	}
	return d
}

// Name returns the scheme label.
func (d *Domain) Name() string { return d.name }

// SampleMask returns the tick mask the hot-path sampling gate uses: a
// bracket is recorded when tick&mask == 0.
func (d *Domain) SampleMask() uint64 { return 1<<d.cfg.SampleShift - 1 }

// Ring returns the flight-recorder ring session ids mapping to stripe i
// write to. Sessions beyond the striping hint share rings; entries are
// seqlock-protected, so sharing is safe.
func (d *Domain) Ring(session int) *Ring { return &d.rings[session&d.ringMask] }

// ProtectStripe returns the session's protect-latency histogram stripe for
// hot-path caching (the reclaim.Handle holds the pointer).
func (d *Domain) ProtectStripe(session int) *LatencyStripe { return d.protect.Stripe(session) }

// RetireStripe returns the session's retire-latency histogram stripe.
func (d *Domain) RetireStripe(session int) *LatencyStripe { return d.retire.Stripe(session) }

// ScanStripe returns the session's scan-latency histogram stripe.
func (d *Domain) ScanStripe(session int) *LatencyStripe { return d.scan.Stripe(session) }

// OffloadStripe returns the offload-latency histogram stripe for a
// background-reclaimer session: it records handoff-to-reclaimed time.
func (d *Domain) OffloadStripe(session int) *LatencyStripe { return d.offload.Stripe(session) }

// SetStatsSource installs the reclamation-statistics closure (wiring time
// only; called by reclaim.Base.EnableObs).
func (d *Domain) SetStatsSource(fn func() Stats) { d.stats = fn }

// SetEraSource installs the era-clock and per-session published-era walk
// for schemes with a global clock (HE, IBR, EBR, URCU). Schemes without one
// (HP, RC, leak) leave it nil and export no era-lag gauges.
func (d *Domain) SetEraSource(clock func() uint64, sessions func(yield func(session int, era uint64))) {
	d.clock = clock
	d.sessions = sessions
}

// SetObjectBytes records the per-object footprint (the arena slot size) so
// pending counts convert to pending bytes.
func (d *Domain) SetObjectBytes(n uint64) { d.objBytes = n }

// SetOffloadSource installs the background-reclamation gauge closure for
// domains with the offload pipeline enabled (wiring time only; called by
// reclaim.Base.EnableObs). Domains without offloading leave it nil and
// export no smr_offload_* series.
func (d *Domain) SetOffloadSource(fn func() OffloadStats) { d.offStats = fn }

// SetClassSource installs the per-size-class arena gauge closure (wiring
// time only; called by reclaim.Base.EnableObs when the allocator exposes
// ClassStats). Domains without one export no smr_arena_class_* series.
func (d *Domain) SetClassSource(fn func() []ArenaClass) { d.classes = fn }

// Tracer returns the per-ref lifecycle tracer, nil unless Config.Trace
// enabled one. Hot paths cache the pointer and branch on nil.
func (d *Domain) Tracer() *Tracer { return d.tracer }

// SetBudget records the domain's Equation-1 pending-bytes budget: the
// bound on unreclaimed memory the scheme's parameters promise. The health
// monitor alerts when PendingBytes exceeds it. Atomic so a budget can be
// installed while snapshots run.
func (d *Domain) SetBudget(bytes int64) { d.budget.Store(bytes) }

// Budget returns the current pending-bytes budget (0 when unset).
func (d *Domain) Budget() int64 { return d.budget.Load() }

// AddSchemeSource appends a scheme-deep metric closure, folded into every
// snapshot. Schemes install these from their EnableObs overrides; the
// reclaim wiring adds the offload per-worker depths the same way.
func (d *Domain) AddSchemeSource(fn func() []SchemeMetric) {
	d.srcMu.Lock()
	d.schemeSrcs = append(d.schemeSrcs, fn)
	d.srcMu.Unlock()
}

// NoteDropped counts n observability records lost outside the ring and
// tracer paths (the sampler calls it on marshal failures). Folded into the
// snapshot's Dropped total.
func (d *Domain) NoteDropped(n int64) { d.extDrops.Add(n) }

// SessionEra is one session's published-era reading in a snapshot.
type SessionEra struct {
	Session int    `json:"session"`
	Era     uint64 `json:"era"`
	Lag     uint64 `json:"lag"`
	Stalled bool   `json:"stalled,omitempty"`
}

// DomainSnapshot is the point-in-time, export-ready view of a Domain: the
// folded statistics, the derived robustness gauges and the folded latency
// histograms. It is what /metrics.json serves and the sampler appends.
type DomainSnapshot struct {
	Scheme  string `json:"scheme"`
	TMillis int64  `json:"t_ms"`
	Stats

	PendingBytes int64 `json:"pending_bytes"`

	// Era-lag gauges; present only for schemes with a global clock.
	HasEras   bool         `json:"has_eras"`
	EraLagMax uint64       `json:"era_lag_max"`
	Stalled   int          `json:"stalled_sessions"`
	Sessions  []SessionEra `json:"sessions,omitempty"`

	Protect HistSnapshot `json:"protect_ns"`
	Retire  HistSnapshot `json:"retire_ns"`
	Scan    HistSnapshot `json:"scan_ns"`

	// Background-reclamation gauges; present only when the domain has the
	// offload pipeline enabled.
	Offload    *OffloadStats `json:"offload,omitempty"`
	OffloadLat HistSnapshot  `json:"offload_latency_ns"`

	// Per-size-class arena gauges; present only when the allocator exposes
	// class accounting (mem arenas with WithByteClasses, plus class 0).
	Classes []ArenaClass `json:"classes,omitempty"`

	// BudgetBytes is the Equation-1 pending-bytes budget installed by the
	// reclaim wiring; 0 when no budget was set.
	BudgetBytes int64 `json:"budget_bytes,omitempty"`

	// Dropped totals observability records lost since attach: ring
	// overwrites, tracer cap losses and external (sampler) drops. The
	// flight recorder is a ring by design, so a non-zero reading means
	// "the window slid", not data corruption — but it is now visible.
	Dropped int64 `json:"dropped_events"`

	// Lifecycle-tracer views; present only when tracing is enabled.
	HasTrace   bool         `json:"has_trace,omitempty"`
	ReclaimAge HistSnapshot `json:"reclaim_age_ns"`
	TraceLive  int          `json:"trace_live_spans,omitempty"`
	Pinned     []PinnedRef  `json:"pinned,omitempty"`

	// Scheme-deep gauges (Hyaline handoff depths, WFE helping counters,
	// per-worker offload queues); present when the scheme installed them.
	SchemeMetrics []SchemeMetric `json:"scheme_metrics,omitempty"`
}

// SchemeMetric returns the single-valued scheme-deep metric with the given
// series name, if the snapshot carries it.
func (s DomainSnapshot) SchemeMetric(name string) (int64, bool) {
	for _, m := range s.SchemeMetrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Snapshot assembles the current DomainSnapshot. Safe to call concurrently
// with recording; counters fold with StripedCounter semantics (exact in
// quiescence, momentarily skewed under fire).
func (d *Domain) Snapshot() DomainSnapshot {
	s := DomainSnapshot{
		Scheme:  d.name,
		TMillis: Now() / int64(time.Millisecond),
		Protect: d.protect.Snapshot(),
		Retire:  d.retire.Snapshot(),
		Scan:    d.scan.Snapshot(),
	}
	if d.stats != nil {
		s.Stats = d.stats()
	}
	if d.offStats != nil {
		off := d.offStats()
		s.Offload = &off
		s.OffloadLat = d.offload.Snapshot()
	}
	if d.classes != nil {
		s.Classes = d.classes()
	}
	// True class-aware pending bytes when the scheme reports them; the
	// Pending × objBytes approximation otherwise (both read 0 at quiescence,
	// so a zero PendingBytes with non-zero Pending means "no byte source").
	if s.Stats.PendingBytes > 0 {
		s.PendingBytes = s.Stats.PendingBytes
	} else {
		s.PendingBytes = s.Pending * int64(d.objBytes)
	}
	if d.clock != nil && d.sessions != nil {
		s.HasEras = true
		clock := d.clock()
		d.sessions(func(session int, era uint64) {
			var lag uint64
			if era < clock {
				lag = clock - era
			}
			stalled := lag >= d.cfg.StallEras
			if stalled {
				s.Stalled++
			}
			if lag > s.EraLagMax {
				s.EraLagMax = lag
			}
			s.Sessions = append(s.Sessions, SessionEra{Session: session, Era: era, Lag: lag, Stalled: stalled})
		})
	}
	s.BudgetBytes = d.budget.Load()
	d.srcMu.Lock()
	srcs := d.schemeSrcs
	d.srcMu.Unlock()
	for _, src := range srcs {
		s.SchemeMetrics = append(s.SchemeMetrics, src()...)
	}
	var dropped int64
	for i := range d.rings {
		dropped += d.rings[i].Dropped()
	}
	dropped += d.extDrops.Load()
	if tr := d.tracer; tr != nil {
		dropped += tr.Drops()
		s.HasTrace = true
		s.ReclaimAge = tr.AgeSnapshot()
		s.TraceLive = tr.LiveCount()
		s.Pinned = tr.Pinned(Now())
		// Attribute each pinned ref to the sessions holding it: a session
		// whose published era falls inside the span's [birth, retire]
		// window forces every scan to keep the ref (the paper's Equation-1
		// condition, read back live). Schemes without eras (HP) list the
		// pinned refs with no holder attribution.
		if s.HasEras {
			for i := range s.Pinned {
				p := &s.Pinned[i]
				if p.BirthEra == 0 && p.RetireEra == 0 {
					continue
				}
				for _, se := range s.Sessions {
					if se.Era >= p.BirthEra && se.Era <= p.RetireEra {
						p.Holders = append(p.Holders, PinHolder{Session: se.Session, Era: se.Era})
					}
				}
			}
		}
	}
	s.Dropped = dropped
	return s
}

// Events returns up to max flight-recorder events merged across all session
// rings, oldest first. max <= 0 returns everything currently readable.
func (d *Domain) Events(max int) []Event {
	var out []Event
	for i := range d.rings {
		out = d.rings[i].appendEvents(out)
	}
	sortEvents(out)
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// sortEvents orders by timestamp, tie-breaking on (session, seq) so merge
// order is deterministic for events stamped in the same nanosecond.
func sortEvents(ev []Event) {
	// Insertion-friendly ordering: rings yield events in per-ring order, so
	// the merged slice is nearly sorted; use a simple binary-insertion sort
	// to avoid pulling in package sort's interface boxing for hot snapshots.
	for i := 1; i < len(ev); i++ {
		e := ev[i]
		lo, hi := 0, i
		for lo < hi {
			mid := (lo + hi) / 2
			if eventLess(ev[mid], e) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		copy(ev[lo+1:i+1], ev[lo:i])
		ev[lo] = e
	}
}

func eventLess(a, b Event) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Session != b.Session {
		return a.Session < b.Session
	}
	return a.Seq < b.Seq
}

// bucketOf maps a nanosecond latency to its power-of-two log bucket:
// bucket 0 holds {0}, bucket b holds [2^(b-1), 2^b-1], and the final bucket
// absorbs everything with 63 or more significant bits.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}
