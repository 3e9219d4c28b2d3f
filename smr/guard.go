package smr

import (
	"repro/internal/atomicx"
	"repro/internal/reclaim"
)

// guard lifecycle states. The state word is owner-only (a Guard, like the
// session handle under it, belongs to one goroutine at a time), so the
// lifecycle checks are plain loads and stores — one predictable branch per
// operation, no atomics. A uint32, not a pointer: the checks' companion
// stores must not carry a write barrier, or BeginOp/EndOp lose their
// inlinability (and a barrier branch per operation).
const (
	guardIdle     uint32 = iota // live, outside an operation window
	guardInOp                   // inside BeginOp..EndOp
	guardReleased               // returned to the pool or unregistered
)

// Misuse panic messages. These are compile-time string constants — each
// panic site below folds "smr: <call>" + suffix at build time — because a
// call to an out-of-line message constructor would charge the inliner's
// full call cost against every wrapper and push BeginOp/EndOp/Load past
// the inlining budget. A constant panic costs the inliner almost nothing,
// which is what keeps every Guard method inlinable (see DESIGN.md "Why
// Guard is a concrete struct").
const (
	msgReleased = " on a released Guard " +
		"(Release returned the session to the domain pool; acquire a fresh " +
		"Guard with Domain.Acquire or Domain.Register instead of reusing this one)"
	msgNoWindow = " outside an operation window " +
		"(open one with Guard.BeginOp; protections published by Atomic.Load " +
		"are only honored between BeginOp and EndOp)"
	msgNested = " inside an already-open operation window " +
		"(windows do not nest; call EndOp before opening another)"
	// BeginOp and EndOp sit under the tightest inlining budget (they also
	// absorb the Handle call), so their checks fold both failure modes into
	// one branch and one panic; the message names both candidate causes.
	msgNotIdle = " on a Guard that is not idle: either" + msgNested +
		", or" + msgReleased
	msgNotInOp = " on a Guard with no open operation window: either" +
		msgNoWindow + ", or" + msgReleased
)

// Guard is a registered reclamation session: the capability every protected
// load, retire and dereference is routed through. Guards come from
// Domain.Register (a fresh session) or Domain.Acquire (the pooled path) and
// go back with Release (pool) or Unregister (permanent close). A Guard is
// single-owner — hand it between goroutines only with external
// synchronization, exactly like the session it wraps.
//
// Guard is deliberately a concrete struct, not an interface: every method
// below is a thin wrapper the compiler inlines into the caller, so the
// public path compiles to the internal Handle fast path plus one owner-only
// branch (see DESIGN.md "Why Guard is a concrete struct").
type Guard struct {
	h *reclaim.Handle
	// dom mirrors h.Domain(), flattened into the Guard so the hot wrappers
	// dispatch g.dom.BeginOp(g.h) directly instead of inlining
	// h.dom.BeginOp(h): the flattened form reaches the itab in one load
	// from the Guard — the same dependency depth as the internal Handle
	// path — where going through g.h first would add a pointer chase to
	// every operation.
	dom   reclaim.Domain
	state uint32
	// id caches the session's arena shard id. Release poisons it to -1:
	// Domain.Alloc is deliberately check-free (the branch would push it
	// past the inlining budget and put a call frame on the retire-heavy
	// path), and a poisoned id makes the arena's own shard bounds check
	// route a released guard's Alloc to the safe shared slow path instead
	// of a pooled session's private magazine.
	id int32
	// The trailing pad keeps two Guards' fields off one cache line: Guards
	// are allocated one after another, and BeginOp/EndOp store state on
	// every operation, so unpadded neighbours' sessions would invalidate
	// each other's line on every operation of either.
	_ atomicx.CacheLinePad
}

// Adopt wraps an internal session handle in a Guard. The Guard is parked in
// the handle's Wrapper slot, so adopting a pooled handle (Domain.Acquire
// after an earlier Release) revives the existing Guard instead of
// allocating — the zero-allocation steady state this package's
// AllocsPerRun tests pin.
//
// Adopt is the bridge for drivers that construct sessions through the
// internal reclaim API (bench harnesses, checkers); pure public-API code
// never needs it.
func Adopt(h *reclaim.Handle) *Guard {
	if g, ok := h.Wrapper.(*Guard); ok {
		g.state = guardIdle
		g.id = int32(h.ID())
		return g
	}
	g := &Guard{h: h, dom: h.Domain(), id: int32(h.ID())}
	h.Wrapper = g
	return g
}

// ID returns the session id (dense; doubles as the arena shard id).
func (g *Guard) ID() int { return g.h.ID() }

// Handle exposes the internal session handle, for structures and drivers
// that still speak the internal reclaim API. The lifecycle checks cannot
// see what happens through it; prefer the typed surface.
func (g *Guard) Handle() *reclaim.Handle { return g.h }

// BeginOp opens the operation window: protections published by Atomic.Load
// are honored from here until EndOp. Windows do not nest.
func (g *Guard) BeginOp() {
	if g.state != guardIdle {
		panic("smr: Guard.BeginOp" + msgNotIdle)
	}
	g.state = guardInOp
	g.dom.BeginOp(g.h)
}

// EndOp closes the operation window, dropping all protections. Every Ptr
// and Bytes obtained inside the window is dead after this call; retire
// what the operation unlinked, then stop touching it.
func (g *Guard) EndOp() {
	if g.state != guardInOp {
		panic("smr: Guard.EndOp" + msgNotInOp)
	}
	g.state = guardIdle
	g.dom.EndOp(g.h)
}

// Retire declares the block r names unlinked and hands it to the scheme
// for eventual reclamation. Call after the unlink CAS — outside the
// operation window when the scheme's retire may block (URCU) or scan.
func (g *Guard) Retire(r Ref) {
	if g.state == guardReleased {
		panic("smr: Guard.Retire" + msgReleased)
	}
	g.h.Retire(r)
}

// Release parks the live session in the domain pool for Acquire to reuse
// and marks this Guard released: any further use panics.
func (g *Guard) Release() {
	if g.state == guardReleased {
		panic("smr: Guard.Release" + msgReleased)
	}
	g.state = guardReleased
	g.id = -1
	g.h.Release()
}

// Unregister permanently closes the session (final scan + orphan handoff)
// and marks this Guard released: any further use panics.
func (g *Guard) Unregister() {
	if g.state == guardReleased {
		panic("smr: Guard.Unregister" + msgReleased)
	}
	g.state = guardReleased
	g.id = -1
	g.h.Unregister()
}
