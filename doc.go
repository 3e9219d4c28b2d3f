// Package repro is a from-scratch Go reproduction of
//
//	Pedro Ramalhete and Andreia Correia,
//	"Brief Announcement: Hazard Eras — Non-Blocking Memory Reclamation",
//	SPAA 2017.
//
// Hazard Eras (HE) is a safe-memory-reclamation scheme for lock-free data
// structures that combines the low reader-side synchronization of
// epoch-based reclamation with the non-blocking progress and bounded memory
// of Hazard Pointers, by publishing *eras* (values of a global clock that
// bracket each object's lifetime) instead of pointers, and republishing only
// when the clock has changed.
//
// Layout (see DESIGN.md for the full inventory and experiment index):
//
//	smr               the public reclamation API: Domain[T], Guard, Atomic[T]
//	internal/core     Hazard Eras itself (paper Algorithms 1-3, §3.4 options)
//	internal/hp       Hazard Pointers baseline
//	internal/ebr      epoch-based reclamation baseline
//	internal/urcu     Grace-Version Userspace-RCU baseline
//	internal/rc       reference-counting baseline
//	internal/leak     no-reclamation control
//	internal/ibr      2GE interval-based reclamation (the HE follow-on)
//	internal/reclaim  the shared Domain interface, session Handles, the
//	                  growable slot-block registry + instrumentation
//	internal/mem      simulated manual memory: slab arenas, packed refs with
//	                  generation tags, use-after-free detection
//	internal/list     Maged-Harris list (the paper's benchmark structure)
//	internal/hashmap  Michael lock-free hash table
//	internal/queue    Michael-Scott queue
//	internal/stack    Treiber stack
//	internal/bst      external PATRICIA tree (deep traversals, §3.4)
//	internal/wfqueue  Kogan-Petrank wait-free queue with full SMR (§3.2/[26])
//	internal/skiplist concurrent skip list with protected range scans
//	internal/bench    harness regenerating Table 1, Figure 4, Eq. 1, ablations
//	internal/trace    machine-checked replays of Figures 1, 2, 5/6
//	cmd/hebench       regenerate every table/figure
//	cmd/hetrace       print the checked schematic replays
//	cmd/hestress      adversarial stress with use-after-free detection
//	examples/...      quickstart, stalled reader, concurrent cache,
//	                  pipeline, wait-free queue, skip-list range scans,
//	                  goroutine pools over the growable session registry
//
// Where the paper's C++ API threads an integer tid through every call and
// fixes maxThreads at construction, this reproduction hands each
// participating goroutine a Guard (a structure's Register/Acquire, or
// smr.Domain.Register) — a session carrying its protection cells, retired
// list and counter stripes; the registry grows by publishing chained slot
// blocks, so registration never fails. See examples/goroutinepool.
//
// This package is the structure-level face: aliases for the smr names plus
// constructors for the schemes and the ported data structures, so `go doc
// repro` reads as the structure reference and `go doc repro/smr` as the
// reclamation reference. The typed reclamation API itself — Domain[T],
// Guard, Atomic[T] — lives in the smr package; internal/list and
// internal/queue are written entirely against it. Its Guard adds a small,
// measured cost over the internal session handle: about 1.4-1.7 ns per
// protected node on a 2-vCPU host, read from cmd/heperf's traced ledger as
// smr.load_ns minus reclaim.handle_protect_ns (EXPERIMENTS.md).
//
// The paper's tables and figures are regenerated by cmd/hebench. The
// benchmarks in bench_test.go time the two questions it does not: the
// isolated per-node protect cost of every scheme (Table 1) and the
// wait-free against the lock-free queue (§3.2).
package repro
