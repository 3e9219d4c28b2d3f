// Package smr is the public, typed face of the safe-memory-reclamation
// substrate: generic domains over typed arenas, pooled session guards, and
// atomic reference cells whose protected Load is only reachable through a
// live Guard — so the compiler, not the caller, enforces the
// protect-before-deref and no-use-after-release lifecycle that the paper's
// C++ API (and this repository's internal packages) enforce by convention.
//
// The three core types:
//
//   - Domain[T] — a reclamation scheme (any of the Scheme constants that
//     Schemes lists: Hazard Eras and its §3.4 min/max variant, Hazard
//     Pointers, EBR, URCU, IBR, Hyaline, WFE, reference counting, or the
//     no-reclamation control) bound to a typed arena of T nodes. Construct
//     one with New (scheme enum) or NewWith (any Factory, e.g. a
//     parameterized variant).
//   - Guard — a registered session. Acquire/Release ride the domain's
//     handle pool, so steady-state acquisition allocates nothing; a
//     released Guard panics on any further session use (Alloc alone falls
//     back to the arena's safe shared path — see Domain.Alloc).
//   - Atomic[T] / AtomicBytes — typed link words. Load(g, i) is the
//     paper's get_protected: it publishes protection index i and returns a
//     Ptr[T] (or Bytes) that Domain.Deref turns into *T only while the
//     guard's operation window is open.
//
// The intended shape of an operation:
//
//	g := dom.Acquire()        // pooled session (or dom.Register())
//	g.BeginOp()               // open the operation window
//	p := cell.Load(g, 0)      // protected load (publishes era/pointer)
//	n := dom.Deref(g, p)      // typed access, checked to be in-window
//	g.EndOp()                 // drop protections
//	g.Retire(p.Ref())         // hand unlinked memory to the scheme
//	g.Release()               // park the session for reuse
//
// Guard is a concrete struct and every per-operation method is a thin,
// inlinable wrapper over the internal session handle — one predictable
// owner-only branch for the lifecycle check, no interface dispatch beyond
// what the internal path already performs, and no per-operation allocation
// (asserted by testing.AllocsPerRun in this package's tests). The lifecycle
// checks still cost time: about 1.4-1.7 ns per protected Load on a 2-vCPU
// host, read from cmd/heperf's traced ledger as smr.load_ns minus
// reclaim.handle_protect_ns.
//
// Every structure in the repository except the wait-free queue (whose
// sessions span two domains, which one Guard cannot carry) is written
// against this package alone; examples/quickstart shows the end-to-end
// flow.
package smr
