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
//   - Linearizability (struct suite): bounded concurrent histories of every
//     row of the structure table (bench.Structures) that has a sequential
//     model, under every scheme the row admits, recorded with internal/linz
//     and checked against the row's model (Wing-Gong). Set rows run twice
//     per seed: with word values and with byte values, whose lookups read
//     the payload through Get.
//
// Every failure prints the command that replays it: its schedule seed and
// every schedule-shaping flag that differs from its default. The -mutate
// flag arms a deliberately broken scheme variant (core.TestingMutation,
// hyaline.TestingMutation, wfe.TestingMutation) and inverts the exit logic:
// detecting the defect is success — the kill-check that proves the oracles
// can actually catch the bug class they claim to.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hyaline"
	"repro/internal/linz"
	"repro/internal/mem"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
	"repro/internal/wfe"
	"repro/smr"
)

var (
	flagSuite     = flag.String("suite", "all", "suite to run: domain, struct, all")
	flagStruct    = flag.String("struct", "all", "comma-separated structure filter ("+strings.Join(linzNames(), ",")+"), or all")
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
				report("domain", "", sch.String(), seed, vs, &failures)
			}
		}
	}
	if (*flagSuite == "struct" || *flagSuite == "all") && mutation == nil {
		for _, sch := range schemes {
			for _, st := range structs {
				if !st.Admits(sch) {
					continue
				}
				labels := []string{st.Name} // word values, then byte values
				if st.Kind == bench.KindSet {
					labels = append(labels, st.Name+"+bytes")
				}
				for _, seed := range seeds {
					for i, label := range labels {
						runs++
						vs := runStructSeed(sch, st, i == 1, seed)
						report(label, st.Name, sch.String(), seed, vs, &failures)
					}
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
	// long chain of interleavings to manifest; cells overrides the
	// shared-cell count (fewer cells raise the odds a writer swap collides
	// with the announced source); minWorkers raises the worker count so
	// more readers announce concurrently.
	minOps     int
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

// linzNames lists the structure table's rows that have a sequential model.
func linzNames() []string {
	var names []string
	for _, st := range bench.Structures() {
		if st.Linz {
			names = append(names, st.Name)
		}
	}
	return names
}

// parseStructs resolves the -struct filter against the structure table:
// "all" is every row with a sequential model, and every named entry must be
// one of them.
func parseStructs(spec string) ([]bench.Structure, error) {
	rows, err := bench.ParseStructs(spec)
	unchecked := func(st bench.Structure) bool { return !st.Linz }
	if i := slices.IndexFunc(rows, unchecked); i >= 0 && spec != "all" {
		return nil, fmt.Errorf("structure %q has no linearizability model (want one of %s)", rows[i].Name, strings.Join(linzNames(), ", "))
	}
	return slices.DeleteFunc(rows, unchecked), err
}

// report prints every violation of one run with the command that replays
// it. label names the run; structName is the -struct entry that reruns it
// ("" for the domain suite).
func report(label, structName, scheme string, seed uint64, violations []string, failures *[]string) {
	if len(violations) == 0 {
		if *flagVerbose {
			fmt.Printf("ok   %-6s %-9s seed=%d\n", label, scheme, seed)
		}
		return
	}
	replay := "hecheck " + strings.Join(replayArgs(structName, scheme, seed), " ")
	for _, v := range violations {
		line := fmt.Sprintf("%s/%s seed=%d: %s", label, scheme, seed, v)
		fmt.Printf("FAIL %s\n     replay: %s\n", line, replay)
		*failures = append(*failures, line)
	}
}

// replayArgs is the command line that reruns one seed: the armed defect,
// the suite, structure and scheme, the seed, and every schedule-shaping
// flag that differs from its default.
func replayArgs(structName, scheme string, seed uint64) []string {
	var args []string
	if *flagMutate != "" {
		args = append(args, "-mutate", *flagMutate)
	}
	if structName == "" {
		args = append(args, "-suite", "domain")
	} else {
		args = append(args, "-suite", "struct", "-struct", structName)
	}
	args = append(args, "-scheme", scheme, "-seed", strconv.FormatUint(seed, 10))
	for _, name := range []string{"workers", "ops", "switchpct", "maxsteps", "scan-threshold"} {
		if f := flag.Lookup(name); f.Value.String() != f.DefValue {
			args = append(args, "-"+name, f.Value.String())
		}
	}
	return args
}

// schedule is the controller configuration of one seed under the flags.
func schedule(seed uint64) schedtest.Config {
	return schedtest.Config{Seed: seed, SwitchPct: *flagSwitchPct, MaxSteps: *flagMaxSteps}
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

	var violations []string
	if err := schedtest.Run(schedule(seed), fns...); err != nil {
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

// structWorker opens worker w's session on b and returns the step that runs
// and records one randomized operation, and the session's close. Set rows
// insert, remove and look up keys in a range of three (in byte mode the
// lookup is a Get, whose value must be the key it was inserted with); FIFO
// and LIFO rows push unique values and pop.
func structWorker(b bench.Built, rec *linz.Recorder, w int, bytes bool) (func(rng *uint64), func()) {
	if s := b.Set; s != nil {
		const keyRange = 3
		g := s.Register()
		return func(rng *uint64) {
			key := splitmix(rng) % keyRange
			switch splitmix(rng) % 4 {
			case 0, 1:
				op := rec.Call(w, linz.OpInsert, key)
				op.Return(0, s.Insert(g, key, key))
			case 2:
				op := rec.Call(w, linz.OpRemove, key)
				op.Return(0, s.Remove(g, key))
			default:
				op := rec.Call(w, linz.OpContains, key)
				if !bytes {
					op.Return(0, s.Contains(g, key))
					return
				}
				v, ok := s.Get(g, key)
				op.Return(0, ok)
				if ok && v != key {
					panic(fmt.Sprintf("Get(%d) read value %d", key, v))
				}
			}
		}, g.Unregister
	}
	push, pop, done := b.Open()
	return func(rng *uint64) {
		if splitmix(rng)%2 == 0 {
			v := uint64(w)<<32 | splitmix(rng)&0xFFFF
			op := rec.Call(w, linz.OpPush, v)
			push(v)
			op.Return(0, true)
		} else {
			op := rec.Call(w, linz.OpPop, 0)
			v, ok := pop()
			op.Return(v, ok)
		}
	}, done
}

// runStructSeed runs the bounded linearizability workload for one
// (structure, scheme) pair under one schedule seed, with byte values when
// bytes is set. A checked-arena fault panics inside a worker; the
// controller recovers it and reports it (with the seed) as the schedule
// error.
func runStructSeed(sch smr.Scheme, st bench.Structure, bytes bool, seed uint64) []string {
	var sizer func(uint64) int
	if bytes {
		sizer = func(uint64) int { return 32 }
	}
	b := st.New(sch.Factory(), true, *flagWorkers+1, sizer)
	workers := *flagWorkers
	ops := *flagOps

	rec := linz.NewRecorder()
	fns := make([]func(), workers)
	closes := make([]func(), workers)
	for w := range fns {
		var step func(*uint64)
		step, closes[w] = structWorker(b, rec, w, bytes)
		fns[w] = func() {
			rng := seed<<8 ^ uint64(w)
			for k := 0; k < ops; k++ {
				step(&rng)
			}
		}
	}

	var violations []string
	if err := schedtest.Run(schedule(seed), fns...); err != nil {
		violations = append(violations, err.Error())
	}
	if history := rec.History(); !linz.Check(history, st.Model()) {
		violations = append(violations,
			fmt.Sprintf("history of %d ops is not linearizable", len(history)))
	}

	for _, c := range closes {
		c()
	}
	b.Drain()
	return violations
}
