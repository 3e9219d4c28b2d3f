package reclaim

import (
	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Instrument counts the sequentially consistent atomic operations a scheme
// issues on the reader side. It exists to regenerate the paper's Table 1
// column "Average per-node synchronization": with instrumentation enabled, a
// traversal of N nodes under HP reports ~2 loads + 1 store per node, under
// HE ~2 loads per node on the fast path, and ~1 load (the data access
// itself) under the quiescence-based schemes.
//
// Instrumentation is opt-in, and sessions count through their probe (the
// Handle.InsLoad/InsStore/InsRMW/InsVisit hooks): a domain constructed
// without it pays one untaken branch per hook.
type Instrument struct {
	loads  *atomicx.StripedCounter
	stores *atomicx.StripedCounter
	rmws   *atomicx.StripedCounter
	visits *atomicx.StripedCounter
}

// NewInstrument allocates counters striped over maxThreads thread ids.
func NewInstrument(maxThreads int) *Instrument {
	return &Instrument{
		loads:  atomicx.NewStripedCounter(maxThreads),
		stores: atomicx.NewStripedCounter(maxThreads),
		rmws:   atomicx.NewStripedCounter(maxThreads),
		visits: atomicx.NewStripedCounter(maxThreads),
	}
}

// Snapshot is the aggregate view of an instrumentation run.
type Snapshot struct {
	Loads  int64
	Stores int64
	RMWs   int64
	Visits int64
}

// PerVisitLoads returns loads per protected node (0 when no visits).
func (s Snapshot) PerVisitLoads() float64 { return perVisit(s.Loads, s.Visits) }

// PerVisitStores returns stores per protected node.
func (s Snapshot) PerVisitStores() float64 { return perVisit(s.Stores, s.Visits) }

// PerVisitRMWs returns read-modify-writes per protected node.
func (s Snapshot) PerVisitRMWs() float64 { return perVisit(s.RMWs, s.Visits) }

func perVisit(n, visits int64) float64 {
	if visits == 0 {
		return 0
	}
	return float64(n) / float64(visits)
}

// Snapshot folds the striped counters. Call it in quiescence.
func (in *Instrument) Snapshot() Snapshot {
	if in == nil {
		return Snapshot{}
	}
	return Snapshot{
		Loads:  in.loads.Sum(),
		Stores: in.stores.Sum(),
		RMWs:   in.rmws.Sum(),
		Visits: in.visits.Sum(),
	}
}

// Reset zeroes all counters.
func (in *Instrument) Reset() {
	if in == nil {
		return
	}
	in.loads.Reset()
	in.stores.Reset()
	in.rmws.Reset()
	in.visits.Reset()
}

// probe is one session's attachment to everything that watches it: the
// Table-1 counter stripes of Config.Instrument, the obs domain's flight
// recorder, latency stripes and sampling ticks, and the lifecycle tracer.
// makeHandle builds it only when an Instrument or an obs domain is
// attached, so every per-session hook on an unwatched handle is one
// untaken nil test of Handle.probe. Inside a probe the families stay
// independently optional: the counters are nil without an Instrument,
// ring (and every other obs field) is nil without an obs domain, and trace
// is nil unless that domain traces. The ticks and scan scratch are
// owner-only plain fields, like the Handle that carries the probe.
type probe struct {
	id int

	loads, stores, rmws, visits *atomicx.PaddedInt64

	ring                 *obs.Ring
	prot, ret, scan, off *obs.LatencyStripe
	mask                 uint64 // sample when tick&mask == 0
	trace                *obs.Tracer

	tickProt, tickRet, tickPush, tickEra uint64
	scanT0                               int64 // NoteScan timestamp
	scanFreed                            int64 // this session's frees since NoteScan
}

// newProbe returns session id's probe, or nil when neither ins nor d is
// attached.
func newProbe(id int, ins *Instrument, d *obs.Domain) *probe {
	if ins == nil && d == nil {
		return nil
	}
	p := &probe{id: id}
	if ins != nil {
		p.loads = ins.loads.Stripe(id)
		p.stores = ins.stores.Stripe(id)
		p.rmws = ins.rmws.Stripe(id)
		p.visits = ins.visits.Stripe(id)
	}
	if d != nil {
		p.ring = d.Ring(id)
		p.prot = d.ProtectStripe(id)
		p.ret = d.RetireStripe(id)
		p.scan = d.ScanStripe(id)
		p.off = d.OffloadStripe(id)
		p.mask = d.SampleMask()
		p.trace = d.Tracer()
	}
	return p
}

// event records an unsampled lifecycle event (register, acquire, release,
// unregister). Nil-safe: the session-lifecycle paths call it on h.probe
// directly.
func (p *probe) event(k obs.Kind) {
	if p != nil && p.ring != nil {
		p.ring.Record(k, p.id, uint64(p.id))
	}
}

// insVisit and insLoads are Handle.InsVisit and Handle.InsLoad on a probe
// already in hand; both are no-ops on a nil probe or without an Instrument.
func (p *probe) insVisit() {
	if p != nil && p.visits != nil {
		p.visits.Add(1)
	}
}

func (p *probe) insLoads(n int64) {
	if p != nil && p.loads != nil {
		p.loads.Add(n)
	}
}

// protectStart opens Handle.Protect's latency bracket: it returns the start
// time when this call is the sampled one in 2^SampleShift, and 0 otherwise
// (obs.Now is positive once the process runs, so 0 means unsampled).
func (p *probe) protectStart() int64 {
	if p.prot != nil {
		p.tickProt++
		if p.tickProt&p.mask == 0 {
			return obs.Now()
		}
	}
	return 0
}

// protectEnd closes the bracket protectStart opened, recording the elapsed
// time when it was sampled, and lands a protect event on a sampled ref's
// lifecycle span.
func (p *probe) protectEnd(t0 int64, ref mem.Ref) {
	if t0 != 0 {
		p.prot.Record(obs.Now() - t0)
	}
	if tr := p.trace; tr != nil && !ref.IsNil() {
		if r := uint64(ref.Unmarked()); tr.Sampled(r) {
			tr.Event(r, obs.SpanProtect, p.id, 0)
		}
	}
}

// retired records one retirement: a sampled EvRetire event carrying the
// retired-list depth (sampled on its own tick, since schemes reach the push
// through d.Retire as well as h.Retire) and the ref's retire span event.
func (p *probe) retired(b *Base, ref mem.Ref, depth int) {
	if p.ring != nil {
		p.tickPush++
		if p.tickPush&p.mask == 0 {
			p.ring.Record(obs.EvRetire, p.id, uint64(depth))
		}
	}
	if tr := p.trace; tr != nil {
		if r := uint64(ref.Unmarked()); tr.Sampled(r) {
			tr.Retire(r, b.Alloc.Header(ref).RetireEra, p.id)
		}
	}
}

// freed records one batch of frees by this session: a single EvFree event
// carrying the batch size (scans are where frees cluster, and the batch
// size is the interesting number), the count NoteScanEnd reports, and each
// sampled ref's free span event.
func (p *probe) freed(refs []mem.Ref) {
	if p.ring != nil {
		p.ring.Record(obs.EvFree, p.id, uint64(len(refs)))
		p.scanFreed += int64(len(refs))
	}
	if tr := p.trace; tr != nil {
		for _, ref := range refs {
			if r := uint64(ref.Unmarked()); tr.Sampled(r) {
				tr.Free(r, p.id)
			}
		}
	}
}
