// Command hecheck is the repository's deterministic correctness gate: it
// drives the reclamation schemes and the structures built on them through
// seeded cooperative schedules (internal/schedtest) and checks two
// orthogonal properties on every run:
//
//   - Safety (domain suite): a shared-cell protect/validate/dereference
//     workload where readers register every VALIDATED protection with the
//     freed-while-protected oracle and assert generation liveness with
//     mem.CheckAccess, while a writer swaps cells and retires the old
//     objects. Any scheme that frees a validated-held object, or lets a
//     reader dereference reclaimed memory, is reported with the schedule
//     seed that exposes it.
//
//   - Linearizability (struct suite): bounded concurrent histories of the
//     list, hash map, queue and stack under every scheme, recorded with
//     internal/linz and checked against the sequential model (Wing-Gong).
//
// Every failure names its schedule seed; rerunning with -seed N replays
// that exact interleaving. The -mutate flag arms a deliberately broken
// scheme variant (core.TestingMutation, hyaline.TestingMutation,
// wfe.TestingMutation) and inverts the exit logic: detecting the defect is
// success — the kill-check that proves the oracles can actually catch the
// bug class they claim to.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hashmap"
	"repro/internal/hyaline"
	"repro/internal/linz"
	"repro/internal/list"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
	"repro/internal/stack"
	"repro/internal/wfe"
	"repro/smr"
)

var (
	flagSuite     = flag.String("suite", "all", "suite to run: domain, struct, all")
	flagStruct    = flag.String("struct", "", "comma-separated structure filter (list,map,queue,stack)")
	flagScheme    = flag.String("scheme", "", "comma-separated scheme filter ("+strings.Join(smr.SchemeNames(), ",")+")")
	flagSeeds     = flag.Uint64("seeds", 8, "number of schedule seeds to explore (1..N)")
	flagSeed      = flag.Uint64("seed", 0, "replay exactly this schedule seed (overrides -seeds)")
	flagWorkers   = flag.Int("workers", 3, "workers per schedule (struct suite: all mixed; domain suite: readers + writer(s))")
	flagOps       = flag.Int("ops", 8, "operations per worker per schedule")
	flagSwitchPct = flag.Int("switchpct", 30, "token-switch probability at eligible gates (0..100)")
	flagMaxSteps  = flag.Uint64("maxsteps", 1<<20, "schedule budget: gates per run before abort")
	flagScanAt    = flag.Int("scan-threshold", 1, "domain suite: retires since the last scan that trigger one (1 = the paper's scan on every retire; 0 = each scheme's default ScanR·H rule)")
	flagMutate    = flag.String("mutate", "", "arm a kill-check defect: skip-publish, invert-lifespan, short-scan (HE), hyaline-early-dec, wfe-skip-validate (domain suite only)")
	flagVerbose   = flag.Bool("v", false, "print every combination, not only failures")
)

func main() {
	flag.Parse()
	if *flagWorkers < 2 {
		fatalf("need at least 2 workers")
	}
	if n := *flagWorkers * *flagOps; n > 64 {
		fatalf("workers*ops = %d exceeds the 64-entry history bound of the linearizability checker", n)
	}

	mutation, err := parseMutation(*flagMutate)
	if err != nil {
		fatalf("%v", err)
	}
	seeds := seedList()
	schemes := smr.Schemes()
	if *flagScheme != "" {
		if schemes, err = bench.ParseSchemes(*flagScheme); err != nil {
			fatalf("%v", err)
		}
	}
	structs, err := parseStructs(*flagStruct)
	if err != nil {
		fatalf("%v", err)
	}

	var failures []string
	runs := 0
	if *flagSuite == "domain" || *flagSuite == "all" {
		for _, sch := range schemes {
			if mutation != nil && !mutation.schemes[sch] {
				continue // the defect lives in a different scheme
			}
			for _, seed := range seeds {
				runs++
				vs := runDomainSeed(sch, mutation, seed)
				report("domain", sch.String(), seed, vs, &failures)
			}
		}
	}
	if (*flagSuite == "struct" || *flagSuite == "all") && mutation == nil {
		for _, sch := range schemes {
			for _, st := range structs {
				if sch == smr.RC && bench.RCUnsafe(st) {
					continue
				}
				for _, seed := range seeds {
					runs++
					vs := runStructSeed(sch, st, seed)
					report(st, sch.String(), seed, vs, &failures)
				}
			}
		}
	}

	if mutation != nil {
		// Kill-check semantics: the armed defect MUST be detected.
		if len(failures) > 0 {
			fmt.Printf("mutation %q killed: %d violation(s) across %d runs; first: %s\n",
				*flagMutate, len(failures), runs, failures[0])
			return
		}
		fmt.Printf("mutation %q SURVIVED %d runs — the oracles missed an armed defect\n", *flagMutate, runs)
		os.Exit(1)
	}
	if len(failures) > 0 {
		fmt.Printf("FAIL: %d violation(s) across %d runs\n", len(failures), runs)
		os.Exit(1)
	}
	fmt.Printf("ok: %d runs clean (%d seeds, switchpct %d)\n", runs, len(seeds), *flagSwitchPct)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hecheck: "+format+"\n", args...)
	os.Exit(2)
}

// mutationSpec describes one armable kill-check defect: which schemes it
// lives in, how to arm it on a freshly built domain, and how many writers
// the domain workload needs for the defect to be reachable at all.
type mutationSpec struct {
	name    string
	schemes map[smr.Scheme]bool
	arm     func(dom reclaim.Domain)
	// writers is the number of writer workers the domain workload runs for
	// this defect (default 1). WFE's helping defect needs two: the helper
	// only certifies an unsafe pair when a SECOND retirer advances the
	// clock between its cell raise and its source load.
	writers int
	// minOps raises the per-worker operation count when the defect needs a
	// long chain of interleavings to manifest; targeted concentrates the
	// schedule's token switches on the gate kinds spanning that chain;
	// cells overrides the shared-cell count (fewer cells raise the odds a
	// writer swap collides with the announced source); minWorkers raises the
	// worker count so more readers announce concurrently.
	minOps     int
	targeted   []schedtest.Kind
	cells      int
	minWorkers int
	// spinHold replaces the reader's second protected window with spinHold
	// bare token-switch gates while the first hold is live. Defects whose
	// victim is an era-uncovered adopted protection need this: a second
	// Protect would republish fresh eras that re-cover the victim and mask
	// the free-under-hold.
	spinHold int
}

func parseMutation(s string) (*mutationSpec, error) {
	heSchemes := map[smr.Scheme]bool{smr.HE: true, smr.HEMinMax: true}
	switch s {
	case "":
		return nil, nil
	case "skip-publish":
		return &mutationSpec{name: s, schemes: heSchemes, arm: func(d reclaim.Domain) {
			d.(*core.Eras).EnableMutation(core.MutSkipPublish)
		}}, nil
	case "invert-lifespan":
		return &mutationSpec{name: s, schemes: heSchemes, arm: func(d reclaim.Domain) {
			d.(*core.Eras).EnableMutation(core.MutInvertLifespan)
		}}, nil
	case "short-scan":
		return &mutationSpec{name: s, schemes: heSchemes, arm: func(d reclaim.Domain) {
			d.(*core.Eras).EnableMutation(core.MutShortScan)
		}}, nil
	case "hyaline-early-dec":
		return &mutationSpec{name: s, schemes: map[smr.Scheme]bool{smr.Hyaline: true}, arm: func(d reclaim.Domain) {
			d.(*hyaline.Domain).EnableMutation(hyaline.MutEarlyDecRef)
		}}, nil
	case "wfe-skip-validate":
		// The unsafe certification needs helper-raise → other-writer advance
		// → other-writer republish → helper load → reader adopt, all inside
		// one announcement: two writers so one can stall mid-help while the
		// other moves the clock, a longer op stream, and MaxTries 0 so every
		// reader Protect announces (each one is a chance at the chain).
		return &mutationSpec{
			name: s, schemes: map[smr.Scheme]bool{smr.WFE: true},
			writers: 2, minWorkers: 4, minOps: 30, cells: 2, spinHold: 8,
			arm: func(d reclaim.Domain) {
				w := d.(*wfe.Domain)
				w.EnableMutation(wfe.MutSkipHelpValidate)
				w.SetMaxTries(0)
			}}, nil
	}
	return nil, fmt.Errorf("unknown -mutate %q (want skip-publish, invert-lifespan, short-scan, hyaline-early-dec or wfe-skip-validate)", s)
}

func seedList() []uint64 {
	if *flagSeed != 0 {
		return []uint64{*flagSeed}
	}
	seeds := make([]uint64, 0, *flagSeeds)
	for s := uint64(1); s <= *flagSeeds; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}

// hecheckStructs are the structures the struct suite checks.
var hecheckStructs = []string{"list", "map", "queue", "stack"}

// parseStructs resolves the -struct filter ("" = every structure); every
// entry must name one of hecheckStructs.
func parseStructs(spec string) ([]string, error) {
	if spec == "" {
		return hecheckStructs, nil
	}
	var out []string
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(hecheckStructs, name) {
			return nil, fmt.Errorf("unknown structure %q (want one of %s)", name, strings.Join(hecheckStructs, ", "))
		}
		out = append(out, name)
	}
	return out, nil
}

func report(suite, scheme string, seed uint64, violations []string, failures *[]string) {
	if len(violations) == 0 {
		if *flagVerbose {
			fmt.Printf("ok   %-6s %-9s seed=%d\n", suite, scheme, seed)
		}
		return
	}
	mutArg := ""
	if *flagMutate != "" {
		mutArg = " -mutate " + *flagMutate
	}
	replay := fmt.Sprintf("hecheck%s -suite domain -scheme %s -seed %d", mutArg, scheme, seed)
	if suite != "domain" {
		replay = fmt.Sprintf("hecheck -suite struct -struct %s -scheme %s -seed %d", suite, scheme, seed)
	}
	for _, v := range violations {
		line := fmt.Sprintf("%s/%s seed=%d: %s", suite, scheme, seed, v)
		fmt.Printf("FAIL %s\n     replay: %s\n", line, replay)
		*failures = append(*failures, line)
	}
}

// splitmix is the per-worker workload PRNG — independent of the schedule
// PRNG so a worker's operation sequence depends only on (seed, worker id),
// never on the interleaving.
func splitmix(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// faultLog collects checked-arena faults instead of panicking, so a run
// reports every violation it produced under one seed.
type faultLog struct {
	mu   sync.Mutex
	msgs []string
}

func (f *faultLog) record(msg string) {
	f.mu.Lock()
	f.msgs = append(f.msgs, msg)
	f.mu.Unlock()
}

func (f *faultLog) take() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.msgs
}

// runDomainSeed runs the shared-cell safety workload for one scheme under
// one schedule seed and returns every violation observed.
//
// Workload shape: numCells shared cells each holding a live object.
// Readers protect a cell's object, RE-VALIDATE the cell still names it
// (the soundness condition for the oracle — see schedtest.Oracle), record
// the hold, open a second protected window (whose gates hand the token to
// the writer mid-hold), and assert liveness with CheckAccess. The writer
// swaps fresh objects into cells and retires the old ones; retirement,
// scanning and freeing all pass through gated reclamation paths, and every
// reclamation-path free is cross-checked against the oracle's shadow table.
func runDomainSeed(sch smr.Scheme, mutation *mutationSpec, seed uint64) []string {
	numCells := 3
	workers := *flagWorkers
	ops := *flagOps
	writers := 1
	if mutation != nil {
		if mutation.writers > 1 {
			writers = mutation.writers
		}
		if workers < writers+1 {
			workers = writers + 1 // at least one reader
		}
		if workers < mutation.minWorkers {
			workers = mutation.minWorkers
		}
		if ops < mutation.minOps {
			ops = mutation.minOps
		}
		if mutation.cells > 0 {
			numCells = mutation.cells
		}
	}

	var faults faultLog
	arena := mem.NewArena[uint64](
		mem.Checked[uint64](true),
		mem.WithShards[uint64](workers+1),
		mem.WithFaultHandler[uint64](faults.record),
	)
	dom := sch.Factory()(arena, reclaim.Config{MaxThreads: workers + 1, Slots: 2})
	// A scan on every retire by default, so every retire's scan meets the
	// schedule and a kill-check's defect is reachable within its seed
	// budget; -scan-threshold 0 checks the amortized trigger instead.
	if t, ok := dom.(interface{ SetScanThreshold(int) }); ok && *flagScanAt > 0 {
		t.SetScanThreshold(*flagScanAt)
	}
	// Schemes with an announce threshold (WFE) drop it to the minimum so
	// every seeded schedule reaches the slow path and the helping protocol,
	// not just the HE-shaped fast path. Armed before the mutation so a
	// kill-check spec can tighten it further (wfe-skip-validate zeroes it).
	if mt, ok := dom.(interface{ SetMaxTries(int) }); ok {
		mt.SetMaxTries(1)
	}
	if mutation != nil {
		mutation.arm(dom)
	}
	oracle := schedtest.NewOracle()
	if g, ok := dom.(interface{ SetFreeGuard(func(mem.Ref)) }); ok {
		g.SetFreeGuard(oracle.FreeGuard)
	}

	cells := make([]atomic.Uint64, numCells)
	setup := dom.Register()
	for i := range cells {
		ref, p := arena.Alloc()
		*p = uint64(i)
		dom.OnAlloc(ref)
		cells[i].Store(uint64(ref))
	}

	// Writers register first, so the readers, whose protections every scan
	// must see, hold the highest slot ids: a registry walk that stops short
	// of the issued count misses a protecting session, not an idle one.
	handles := make([]*reclaim.Handle, workers)
	for w := workers - 1; w >= 0; w-- {
		handles[w] = dom.Register()
	}

	reader := func(w int) func() {
		h := handles[w]
		return func() {
			rng := seed<<8 ^ uint64(w)
			for k := 0; k < ops; k++ {
				dom.BeginOp(h)
				ci := int(splitmix(&rng) % uint64(numCells))
				ref := h.Protect(0, &cells[ci]).Unmarked()
				if !ref.IsNil() && cells[ci].Load() == uint64(ref) {
					// Validated: the cell still named ref AFTER the
					// protection was established, so the scheme owes us its
					// liveness until we drop the hold.
					oracle.Hold(w, 0, ref)
					if mutation != nil && mutation.spinHold > 0 {
						// Bare token-switch windows with the hold live: no
						// second Protect, so nothing republishes a fresh era
						// that could re-cover an era-uncovered victim. (A
						// probability-gated kind, not PointSpin — the holder
						// is not waiting on anyone and may be last to finish.)
						for s := 0; s < mutation.spinHold; s++ {
							schedtest.Point(schedtest.PointProtect)
							arena.CheckAccess(ref)
						}
					} else {
						// A second protected window: its gates can hand the
						// token to the writer while the first hold is live.
						cj := int(splitmix(&rng) % uint64(numCells))
						ref2 := h.Protect(1, &cells[cj]).Unmarked()
						if !ref2.IsNil() && cells[cj].Load() == uint64(ref2) {
							oracle.Hold(w, 1, ref2)
							arena.CheckAccess(ref2)
						}
					}
					arena.CheckAccess(ref)
				}
				oracle.DropAll(w)
				dom.EndOp(h)
			}
		}
	}
	writer := func(w int) func() {
		h := handles[w]
		return func() {
			rng := seed<<8 ^ uint64(w)
			for k := 0; k < ops; k++ {
				ci := int(splitmix(&rng) % uint64(numCells))
				old := mem.Ref(cells[ci].Load())
				ref, p := arena.AllocAt(h.ID())
				*p = splitmix(&rng)
				dom.OnAlloc(ref)
				if cells[ci].CompareAndSwap(uint64(old), uint64(ref)) {
					h.Retire(old)
				} else {
					arena.FreeAt(h.ID(), ref) // never published
				}
			}
		}
	}

	fns := make([]func(), workers)
	for w := 0; w < workers-writers; w++ {
		fns[w] = reader(w)
	}
	for w := workers - writers; w < workers; w++ {
		fns[w] = writer(w)
	}

	cfg := schedtest.Config{
		Seed:      seed,
		SwitchPct: *flagSwitchPct,
		MaxSteps:  *flagMaxSteps,
	}
	if mutation != nil {
		cfg.Targeted = mutation.targeted
	}
	var violations []string
	if err := schedtest.Run(cfg, fns...); err != nil {
		violations = append(violations, err.Error())
	}
	violations = append(violations, oracle.Violations()...)
	for _, msg := range faults.take() {
		violations = append(violations, "arena fault: "+msg)
	}

	for _, h := range handles {
		h.Unregister()
	}
	setup.Unregister()
	dom.Drain()
	return violations
}

// structOps adapts one structure behind a common op surface so a single
// worker body drives all four.
type structOps struct {
	model linz.Model
	// update runs one randomized operation and records it; set-like
	// structures insert/remove/contains over a small key range, LIFO/FIFO
	// structures push unique values and pop.
	step  func(g *smr.Guard, rec *linz.Recorder, w int, rng *uint64)
	dom   reclaim.Domain
	drain func()
}

func makeStruct(name string, sch smr.Scheme) structOps {
	threads := *flagWorkers + 1
	switch name {
	case "list", "map":
		var (
			insert   func(g *smr.Guard, k, v uint64) bool
			remove   func(g *smr.Guard, k uint64) bool
			contains func(g *smr.Guard, k uint64) bool
			dom      reclaim.Domain
			drain    func()
		)
		if name == "list" {
			l := list.New(sch.Factory(), list.WithChecked(true), list.WithMaxThreads(threads))
			insert, remove, contains = l.Insert, l.Remove, l.Contains
			dom, drain = l.Domain(), l.Drain
		} else {
			m := hashmap.New(sch.Factory(), hashmap.WithChecked(true), hashmap.WithMaxThreads(threads), hashmap.WithBuckets(2))
			insert, remove, contains = m.Insert, m.Remove, m.Contains
			dom, drain = m.Domain(), m.Drain
		}
		const keyRange = 3
		return structOps{
			model: linz.NewSetModel(),
			dom:   dom,
			drain: drain,
			step: func(g *smr.Guard, rec *linz.Recorder, w int, rng *uint64) {
				key := splitmix(rng) % keyRange
				switch splitmix(rng) % 4 {
				case 0, 1:
					op := rec.Call(w, linz.OpInsert, key)
					op.Return(0, insert(g, key, key))
				case 2:
					op := rec.Call(w, linz.OpRemove, key)
					op.Return(0, remove(g, key))
				default:
					op := rec.Call(w, linz.OpContains, key)
					op.Return(0, contains(g, key))
				}
			},
		}
	case "queue":
		q := queue.New(sch.Factory(), queue.WithChecked(true), queue.WithMaxThreads(threads))
		return structOps{
			model: linz.NewQueueModel(),
			dom:   q.Domain(),
			drain: q.Drain,
			step: func(g *smr.Guard, rec *linz.Recorder, w int, rng *uint64) {
				if splitmix(rng)%2 == 0 {
					v := uint64(w)<<32 | splitmix(rng)&0xFFFF
					op := rec.Call(w, linz.OpPush, v)
					q.Enqueue(g, v)
					op.Return(0, true)
				} else {
					op := rec.Call(w, linz.OpPop, 0)
					v, ok := q.Dequeue(g)
					op.Return(v, ok)
				}
			},
		}
	case "stack":
		s := stack.New(sch.Factory(), stack.WithChecked(true), stack.WithMaxThreads(threads))
		return structOps{
			model: linz.NewStackModel(),
			dom:   s.Domain(),
			drain: s.Drain,
			step: func(g *smr.Guard, rec *linz.Recorder, w int, rng *uint64) {
				if splitmix(rng)%2 == 0 {
					v := uint64(w)<<32 | splitmix(rng)&0xFFFF
					op := rec.Call(w, linz.OpPush, v)
					s.Push(g, v)
					op.Return(0, true)
				} else {
					op := rec.Call(w, linz.OpPop, 0)
					v, ok := s.Pop(g)
					op.Return(v, ok)
				}
			},
		}
	}
	fatalf("unknown structure %q", name)
	return structOps{}
}

// runStructSeed runs the bounded linearizability workload for one
// (structure, scheme) pair under one schedule seed. A checked-arena fault
// panics inside a worker; the controller recovers it and reports it (with
// the seed) as the schedule error.
func runStructSeed(sch smr.Scheme, structName string, seed uint64) []string {
	so := makeStruct(structName, sch)
	workers := *flagWorkers
	ops := *flagOps

	rec := linz.NewRecorder()
	handles := make([]*smr.Guard, workers)
	for w := range handles {
		handles[w] = smr.Adopt(so.dom.Register())
	}
	fns := make([]func(), workers)
	for w := 0; w < workers; w++ {
		w := w
		fns[w] = func() {
			rng := seed<<8 ^ uint64(w)
			for k := 0; k < ops; k++ {
				so.step(handles[w], rec, w, &rng)
			}
		}
	}

	var violations []string
	if err := schedtest.Run(schedtest.Config{
		Seed:      seed,
		SwitchPct: *flagSwitchPct,
		MaxSteps:  *flagMaxSteps,
	}, fns...); err != nil {
		violations = append(violations, err.Error())
	}
	if history := rec.History(); !linz.Check(history, so.model) {
		violations = append(violations,
			fmt.Sprintf("history of %d ops is not linearizable", len(history)))
	}

	for _, h := range handles {
		h.Unregister()
	}
	so.drain()
	return violations
}
