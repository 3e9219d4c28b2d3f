package smr

import (
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/payload"
	"repro/internal/reclaim"
)

// ---- substrate re-exports ------------------------------------------------
//
// These aliases are the bridge between the typed public surface and the
// internal substrate: a Ref is the same packed word internal/mem uses, a
// Backend is the same reclaim.Domain every scheme implements, and a Factory
// is assignable from the factories the bench layer and the structure
// packages already pass around. Internal packages ported to smr therefore
// interoperate with unported ones without conversion shims.

// Ref is a packed arena reference: mark bit, size class, slot generation,
// slot index. It is the untyped currency of the lifecycle calls that do not
// dereference (Publish, Retire, Free); Ptr[T] and Bytes wrap it for the
// calls that do.
type Ref = mem.Ref

// NilRef is the null Ref.
const NilRef = mem.NilRef

// InvalidRef returns a ref into a slab that is never allocated; a checked
// arena faults on any dereference of it. Poisoners store it into freed
// cells so use-after-free traversals are conspicuous.
func InvalidRef() Ref { return mem.MakeRef(mem.MaxIndex, 0) }

// Arena is the slab allocator a Domain[T] reclaims into.
type Arena[T any] = mem.Arena[T]

// ArenaOption configures the arena underlying a Domain[T].
type ArenaOption[T any] = mem.Option[T]

// ArenaStats is an allocator counter snapshot.
type ArenaStats = mem.Stats

// Checked enables generation-validated dereference (use-after-free
// detection) on the domain's arena.
func Checked[T any](on bool) ArenaOption[T] { return mem.Checked[T](on) }

// WithPoison installs a node poisoner run on every free.
func WithPoison[T any](poison func(*T)) ArenaOption[T] { return mem.WithPoison(poison) }

// WithByteValues adds the size-class byte sub-allocator to the domain's
// arena, enabling AllocBytes/PutBytes/DerefBytes payload blocks.
func WithByteValues[T any]() ArenaOption[T] { return mem.WithByteClasses[T]() }

// Backend is the scheme-level reclamation interface (the internal
// reclaim.Domain): Register/Acquire for sessions, Retire/Drain/Stats for
// accounting. Domain[T] wraps one; Backend is exposed for drivers that
// enumerate schemes generically.
type Backend = reclaim.Domain

// Allocator is the arena capability a Backend needs; every *Arena[T]
// satisfies it.
type Allocator = reclaim.Allocator

// Config carries the construction parameters common to all schemes —
// MaxThreads (initial session capacity; the registry grows on demand),
// Slots (protection indices per session), ScanR (scan amortization),
// Instrument (reader-side op counting) and Offload (background
// reclamation pipeline). Every field is fixed at construction. With the
// zero value a session scans once per H retires since its last scan, H =
// sessions registered × Slots (Michael's R = H + Ω(H) rule with ScanR 1),
// and reclaims inline. The paper's scan on every retire is the backend's
// SetScanThreshold(1), called from a Factory passed to NewWith.
type Config = reclaim.Config

// Stats is a reclamation-accounting snapshot (PeakPending is the paper's
// Equation-1 quantity).
type Stats = reclaim.Stats

// Instrument counts reader-side atomic operations (Table 1 reproduction).
type Instrument = reclaim.Instrument

// NewInstrument allocates instrumentation counters for maxThreads ids.
func NewInstrument(maxThreads int) *Instrument { return reclaim.NewInstrument(maxThreads) }

// OffloadConfig configures the background reclamation pipeline
// (Config.Offload).
type OffloadConfig = reclaim.OffloadConfig

// Factory constructs a reclamation backend over an allocator. The factories
// in internal/bench and the Scheme.Factory method both have this shape;
// NewWith accepts either.
type Factory = func(alloc Allocator, cfg Config) Backend

// Hub aggregates observability domains for export (Prometheus text,
// JSON, flight-recorder drains); see Domain.Observe.
type Hub = obs.Hub

// NewHub creates an empty observability hub.
func NewHub() *Hub { return obs.NewHub() }

// ---- value-payload helpers ----------------------------------------------

// MinPayload is the smallest payload block a byte-value structure stores:
// a value word plus its integrity tail.
const MinPayload = payload.MinSize

// PayloadSize maps a key to its payload size under sizer (nil sizer, or
// anything below MinPayload, means MinPayload).
func PayloadSize(sizer func(key uint64) int, key uint64) int {
	return payload.SizeFor(sizer, key)
}

// EncodePayload fills a payload block from a value word (value in the head,
// deterministic integrity pattern in the tail).
func EncodePayload(p []byte, val uint64) { payload.Encode(p, val) }

// DecodePayload recovers the value word from a payload block.
func DecodePayload(p []byte) uint64 { return payload.Decode(p) }

// ---- Domain[T] -----------------------------------------------------------

// Domain is a reclamation scheme bound to a typed arena of T nodes. All
// allocation, dereference and reclamation for one structure flows through
// one Domain; sessions come from Register/Acquire as Guards.
type Domain[T any] struct {
	dom   Backend
	arena *Arena[T]
	cfg   Config
}

// New builds a Domain running scheme s. cfg zero values take the usual
// defaults (64 initial sessions, 4 protection slots).
func New[T any](s Scheme, cfg Config, opts ...ArenaOption[T]) *Domain[T] {
	return NewWith[T](s.Factory(), cfg, opts...)
}

// NewWith builds a Domain over the backend mk constructs — the hook for
// parameterized variants (k-advance, scan thresholds) and for the bench
// layer's instrumented factories.
func NewWith[T any](mk Factory, cfg Config, opts ...ArenaOption[T]) *Domain[T] {
	cfg = cfg.Defaulted()
	arenaOpts := append([]ArenaOption[T]{mem.WithShards[T](cfg.MaxThreads)}, opts...)
	arena := mem.NewArena[T](arenaOpts...)
	return &Domain[T]{dom: mk(arena, cfg), arena: arena, cfg: cfg}
}

// Name returns the backend's scheme name.
func (d *Domain[T]) Name() string { return d.dom.Name() }

// Backend exposes the scheme-level domain for generic drivers (stats,
// enumeration). The typed API above it is the supported surface.
func (d *Domain[T]) Backend() Backend { return d.dom }

// Arena exposes the node arena (stats, fault counters).
func (d *Domain[T]) Arena() *Arena[T] { return d.arena }

// Config returns the (defaulted) construction parameters.
func (d *Domain[T]) Config() Config { return d.cfg }

// Stats snapshots the domain's reclamation accounting.
func (d *Domain[T]) Stats() Stats { return d.dom.Stats() }

// Register opens a new session and returns its Guard. It never fails: the
// registry grows past its initial capacity on demand.
func (d *Domain[T]) Register() *Guard { return Adopt(d.dom.Register()) }

// Acquire returns a pooled session parked by an earlier Release, or
// registers a new one. The pooled path reuses both the session handle and
// its Guard, so steady-state Acquire/Release allocates nothing.
func (d *Domain[T]) Acquire() *Guard { return Adopt(d.dom.Acquire()) }

// Alloc takes a T block from the guard session's arena magazine. The block
// is private until Publish stamps its birth era and a CAS links it; an
// unpublished block is returned with Free. Allowed outside an operation
// window (structures allocate before opening one).
//
// Alloc is the one guard-routed call with no lifecycle branch: allocation
// never touches session state — the guard only contributes its arena shard
// id as a locality hint — and the branch would cost Alloc its inlinability
// (a call frame on every node insertion). A released guard carries a
// poisoned id, which the arena's shard bounds check routes to the safe
// shared allocation path; the first real session call after it (Retire,
// Atomic.Load, BeginOp) still panics with the released-guard message.
func (d *Domain[T]) Alloc(g *Guard) (Ptr[T], *T) {
	ref, p := d.arena.AllocAt(int(g.id))
	return Ptr[T]{ref}, p
}

// AllocBytes takes an n-byte payload block from the size-class space
// (WithByteValues arenas only).
func (d *Domain[T]) AllocBytes(g *Guard, n int) (Bytes, []byte) {
	if g.state == guardReleased {
		panic("smr: Domain.AllocBytes" + msgReleased)
	}
	ref, p := d.arena.AllocBytesAt(g.h.ID(), n)
	return Bytes{ref}, p
}

// PutBytes allocates a payload block holding a copy of raw.
func (d *Domain[T]) PutBytes(g *Guard, raw []byte) Bytes {
	if g.state == guardReleased {
		panic("smr: Domain.PutBytes" + msgReleased)
	}
	return Bytes{d.arena.PutBytesAt(g.h.ID(), raw)}
}

// Publish stamps r's birth era. Call it immediately before the CAS that
// makes the block reachable (paper §3: "before the object is made visible
// to other threads"); after publication the block must leave through
// Guard.Retire, never Free.
func (d *Domain[T]) Publish(r Ref) { d.dom.OnAlloc(r) }

// Deref returns the node p names. p must carry a protection that is still
// live — a Ptr obtained from Atomic.Load under g's open operation window —
// which is why the guard is part of the signature: dereference is
// unreachable once the window closed.
func (d *Domain[T]) Deref(g *Guard, p Ptr[T]) *T {
	if g.state != guardInOp {
		panic("smr: Domain.Deref" + msgNotInOp)
	}
	return d.arena.Get(p.ref)
}

// DerefBytes returns the payload block b names, under the same window
// discipline as Deref.
func (d *Domain[T]) DerefBytes(g *Guard, b Bytes) []byte {
	if g.state != guardInOp {
		panic("smr: Domain.DerefBytes" + msgNotInOp)
	}
	return d.arena.Bytes(b.ref)
}

// DerefQuiescent returns the node p names without a protection proof — for
// single-threaded phases (construction, teardown, tests) where no
// concurrent reclaimer exists. Checked arenas still validate generations.
func (d *Domain[T]) DerefQuiescent(p Ptr[T]) *T { return d.arena.Get(p.ref) }

// Free returns a never-published block to the session's magazine (the
// duplicate-insert path). Published blocks must go through Guard.Retire.
func (d *Domain[T]) Free(g *Guard, r Ref) {
	if g.state == guardReleased {
		panic("smr: Domain.Free" + msgReleased)
	}
	d.arena.FreeAt(g.h.ID(), r)
}

// Drop frees a block directly, bypassing reclamation — quiescent teardown
// only (a structure draining its own links).
func (d *Domain[T]) Drop(r Ref) { d.arena.Free(r) }

// Drain frees every pending retired object; only safe at quiescence (the
// paper's destructor).
func (d *Domain[T]) Drain() { d.dom.Drain() }

// Observe attaches an observability domain named name to hub and wires it
// to this domain's statistics, era-lag and arena sources. Call before the
// first Register/Acquire; sessions registered earlier stay uninstrumented.
func (d *Domain[T]) Observe(hub *Hub, name string) {
	reclaim.Observe(d.dom, hub, name, obs.Config{Sessions: d.cfg.MaxThreads})
}
