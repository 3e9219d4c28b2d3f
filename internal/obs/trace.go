package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Per-ref lifecycle tracing. A configurable fraction of allocations is
// tagged at Alloc time and followed through its whole life — alloc →
// publish → protect → retire → handoff → scan-pass skip → free —
// so that a pending-bytes spike can be explained by naming the refs that
// are pinned, the sessions pinning them, and how long each has waited.
//
// The sampling decision is a pure function of the ref's packed identity
// (a splitmix64 finalizer over the unmarked word), so every hook site can
// recompute it independently with five ALU ops and no shared state. Slot
// reuse is uncorrelated with sampling because the arena bumps the ref's
// generation bits on free: the same slot hashes differently each life.
//
// Cost discipline: untraced refs pay exactly one nil-check plus the hash
// per hook; traced refs take a sharded mutex around a map entry. Spans,
// events per span, and the completed-span backlog are all hard-capped —
// overflow increments the drop counter folded into smr_obs_dropped_total
// rather than growing without bound.

// TraceConfig sizes the per-ref lifecycle tracer. Zero values take
// defaults; the tracer only exists when Enabled is set.
type TraceConfig struct {
	// Enabled builds a Tracer for the domain. Disabled domains keep every
	// trace hook at one untaken nil-pointer branch.
	Enabled bool
	// SampleShift selects one allocation in 2^SampleShift for tracing
	// (decision hashed from the ref identity). 0 means the default of 10
	// (1 in 1024); use SampleAll for exhaustive tracing in tests.
	SampleShift uint
	// SampleAll traces every allocation. Test and demo use.
	SampleAll bool
	// MaxLive caps concurrently open spans (across all shards); allocations
	// sampled past the cap are dropped and counted. Default 4096.
	MaxLive int
	// MaxEvents caps the per-span event list; further events increment the
	// span's Truncated counter and the domain drop counter. Default 48.
	MaxEvents int
	// MaxDone caps the completed-span backlog awaiting a sampler drain.
	// Default 1024.
	MaxDone int
	// TopK is the size of the longest-pinned table in snapshots. Default 8.
	TopK int
}

func (c TraceConfig) defaulted() TraceConfig {
	if c.SampleShift == 0 && !c.SampleAll {
		c.SampleShift = 10
	}
	if c.SampleAll {
		c.SampleShift = 0
	}
	if c.MaxLive <= 0 {
		c.MaxLive = 4096
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 48
	}
	if c.MaxDone <= 0 {
		c.MaxDone = 1024
	}
	if c.TopK <= 0 {
		c.TopK = 8
	}
	return c
}

// SpanKind labels one lifecycle event inside a RefSpan.
type SpanKind uint8

const (
	SpanAlloc SpanKind = iota
	SpanPublish
	SpanProtect
	SpanRetire
	SpanHandoff
	SpanSkip
	SpanFree
)

var spanKindNames = [...]string{
	SpanAlloc:   "alloc",
	SpanPublish: "publish",
	SpanProtect: "protect",
	SpanRetire:  "retire",
	SpanHandoff: "handoff",
	SpanSkip:    "skip",
	SpanFree:    "free",
}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "unknown"
}

// SpanEvent is one timestamped lifecycle event. Session is -1 when the
// recording site has no session identity (arena allocation, OnAlloc).
type SpanEvent struct {
	T       int64    `json:"t_ns"`
	Kind    SpanKind `json:"-"`
	KindStr string   `json:"kind"`
	Session int      `json:"session"`
	Value   uint64   `json:"value,omitempty"`
}

// RefSpan is the recorded lifecycle of one traced ref. Ref is the packed
// arena reference (mark stripped); eras are zero for schemes without a
// clock. A span is complete once FreeT is set; incomplete spans belong to
// refs still live (or still pending) in the domain.
type RefSpan struct {
	Ref       uint64      `json:"ref"`
	BirthEra  uint64      `json:"birth_era,omitempty"`
	RetireEra uint64      `json:"retire_era,omitempty"`
	AllocT    int64       `json:"alloc_t_ns"`
	RetireT   int64       `json:"retire_t_ns,omitempty"`
	FreeT     int64       `json:"free_t_ns,omitempty"`
	Truncated int64       `json:"truncated_events,omitempty"`
	Events    []SpanEvent `json:"events"`
}

// PinHolder attributes a pinned ref to one session: the session's
// published era fell inside the span's [birth, retire] window at snapshot
// time, so every scan must keep the ref alive on its behalf.
type PinHolder struct {
	Session int    `json:"session"`
	Era     uint64 `json:"era"`
}

// PinnedRef is one row of the longest-pinned table: a traced ref retired
// but not yet freed, ordered by retire-age.
type PinnedRef struct {
	Ref       uint64      `json:"ref"`
	AgeNs     int64       `json:"age_ns"`
	BirthEra  uint64      `json:"birth_era,omitempty"`
	RetireEra uint64      `json:"retire_era,omitempty"`
	Holders   []PinHolder `json:"holders,omitempty"`
}

const traceShards = 16

type traceShard struct {
	mu    sync.Mutex
	spans map[uint64]*RefSpan
	_     [40]byte // keep shard locks off each other's cache lines
}

// Tracer records sampled per-ref lifecycle spans for one domain. All
// methods are safe for concurrent use. Callers pre-filter with Sampled so
// untraced refs never reach the sharded maps.
type Tracer struct {
	cfg     TraceConfig
	mask    uint64 // mix(ref)&mask == 0 → traced
	liveCap int    // per-shard open-span cap
	shards  [traceShards]traceShard
	age     *Histogram // retire→free latency (reclamation age)
	drops   atomic.Int64
	doneMu  sync.Mutex
	done    []*RefSpan
}

func newTracer(cfg TraceConfig, sessions int) *Tracer {
	cfg = cfg.defaulted()
	t := &Tracer{
		cfg:     cfg,
		mask:    1<<cfg.SampleShift - 1,
		liveCap: (cfg.MaxLive + traceShards - 1) / traceShards,
		age:     NewHistogram(sessions),
	}
	for i := range t.shards {
		t.shards[i].spans = make(map[uint64]*RefSpan)
	}
	return t
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection, so the
// low SampleShift bits of mix64(ref) are an unbiased 1-in-2^shift filter
// over any set of distinct refs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Sampled reports whether ref is in the traced fraction. Pure function of
// the ref bits — every hook site recomputes it instead of sharing state.
func (t *Tracer) Sampled(ref uint64) bool { return mix64(ref)&t.mask == 0 }

func (t *Tracer) shard(ref uint64) *traceShard {
	return &t.shards[(mix64(ref)>>32)&(traceShards-1)]
}

// Alloc opens a span for a sampled ref. session is -1 when the allocation
// site has no session identity.
func (t *Tracer) Alloc(ref uint64, session int) {
	now := Now()
	sh := t.shard(ref)
	sh.mu.Lock()
	if _, ok := sh.spans[ref]; ok {
		// A stale span for this exact ref means a free was never observed
		// (e.g. tracing attached mid-life in tests). Replace it and count
		// the loss rather than interleaving two lives.
		t.drops.Add(1)
	} else if len(sh.spans) >= t.liveCap {
		sh.mu.Unlock()
		t.drops.Add(1)
		return
	}
	sp := &RefSpan{Ref: ref, AllocT: now}
	sp.Events = append(sp.Events, SpanEvent{T: now, Kind: SpanAlloc, KindStr: SpanAlloc.String(), Session: session})
	sh.spans[ref] = sp
	sh.mu.Unlock()
}

// Publish records the publish event (the scheme's OnAlloc) and stamps the
// birth era for era-based schemes. A publish with no open span (alloc-time
// drop, or the cap was hit) is ignored.
func (t *Tracer) Publish(ref uint64, birthEra uint64, session int) {
	now := Now()
	sh := t.shard(ref)
	sh.mu.Lock()
	if sp, ok := sh.spans[ref]; ok {
		sp.BirthEra = birthEra
		t.appendEvent(sp, SpanEvent{T: now, Kind: SpanPublish, KindStr: SpanPublish.String(), Session: session, Value: birthEra})
	}
	sh.mu.Unlock()
}

// Event records a generic lifecycle event (protect, handoff, skip).
func (t *Tracer) Event(ref uint64, kind SpanKind, session int, value uint64) {
	now := Now()
	sh := t.shard(ref)
	sh.mu.Lock()
	if sp, ok := sh.spans[ref]; ok {
		t.appendEvent(sp, SpanEvent{T: now, Kind: kind, KindStr: kind.String(), Session: session, Value: value})
	}
	sh.mu.Unlock()
}

// Retire marks the span retired and stamps the retire era (zero for
// schemes without a clock). Retire-age measurement starts here.
func (t *Tracer) Retire(ref uint64, retireEra uint64, session int) {
	now := Now()
	sh := t.shard(ref)
	sh.mu.Lock()
	if sp, ok := sh.spans[ref]; ok {
		sp.RetireT = now
		sp.RetireEra = retireEra
		t.appendEvent(sp, SpanEvent{T: now, Kind: SpanRetire, KindStr: SpanRetire.String(), Session: session, Value: retireEra})
	}
	sh.mu.Unlock()
}

// Free closes the span: records the free event, feeds the retire→free
// latency into the reclamation-age histogram, and moves the span to the
// completed backlog for the sampler to drain.
func (t *Tracer) Free(ref uint64, session int) {
	now := Now()
	sh := t.shard(ref)
	sh.mu.Lock()
	sp, ok := sh.spans[ref]
	if !ok {
		sh.mu.Unlock()
		return
	}
	delete(sh.spans, ref)
	sp.FreeT = now
	t.appendEvent(sp, SpanEvent{T: now, Kind: SpanFree, KindStr: SpanFree.String(), Session: session})
	sh.mu.Unlock()

	if sp.RetireT > 0 {
		s := session
		if s < 0 {
			s = 0
		}
		t.age.Record(s, now-sp.RetireT)
	}
	t.doneMu.Lock()
	if len(t.done) < t.cfg.MaxDone {
		t.done = append(t.done, sp)
	} else {
		t.drops.Add(1)
	}
	t.doneMu.Unlock()
}

// appendEvent appends under the caller-held shard lock, honouring the
// per-span cap.
func (t *Tracer) appendEvent(sp *RefSpan, ev SpanEvent) {
	if len(sp.Events) >= t.cfg.MaxEvents {
		sp.Truncated++
		t.drops.Add(1)
		return
	}
	sp.Events = append(sp.Events, ev)
}

// DrainDone removes and returns the completed spans accumulated since the
// last drain (the sampler serializes them as JSONL span lines).
func (t *Tracer) DrainDone() []*RefSpan {
	t.doneMu.Lock()
	out := t.done
	t.done = nil
	t.doneMu.Unlock()
	return out
}

// LiveCount returns the number of open spans.
func (t *Tracer) LiveCount() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.spans)
		sh.mu.Unlock()
	}
	return n
}

// LiveSpans returns deep-enough copies of the open spans (events cloned)
// for offline inspection in tests and drain-time audits.
func (t *Tracer) LiveSpans() []RefSpan {
	var out []RefSpan
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, sp := range sh.spans {
			c := *sp
			c.Events = append([]SpanEvent(nil), sp.Events...)
			out = append(out, c)
		}
		sh.mu.Unlock()
	}
	return out
}

// Drops returns the tracer-side dropped-event count (span-cap, event-cap
// and backlog-cap losses).
func (t *Tracer) Drops() int64 { return t.drops.Load() }

// AgeSnapshot folds the reclamation-age (retire→free latency) histogram.
func (t *Tracer) AgeSnapshot() HistSnapshot { return t.age.Snapshot() }

// Pinned returns the top-K longest-pinned traced refs: spans retired but
// not yet freed, oldest retire first. Holder attribution is filled in by
// Domain.Snapshot, which owns the session walk.
func (t *Tracer) Pinned(now int64) []PinnedRef {
	var pinned []PinnedRef
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, sp := range sh.spans {
			if sp.RetireT > 0 {
				pinned = append(pinned, PinnedRef{
					Ref:       sp.Ref,
					AgeNs:     now - sp.RetireT,
					BirthEra:  sp.BirthEra,
					RetireEra: sp.RetireEra,
				})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(pinned, func(i, j int) bool { return pinned[i].AgeNs > pinned[j].AgeNs })
	if len(pinned) > t.cfg.TopK {
		pinned = pinned[:t.cfg.TopK]
	}
	return pinned
}
