// Command hestress runs adversarial stress over the checked, poisoned
// memory substrate: every dereference is generation-validated, so an unsafe
// reclamation by any scheme surfaces as a detected fault instead of silent
// corruption — the Go analogue of running the C++ original under ASAN.
//
// Usage:
//
//	hestress -struct list -scheme HE -threads 8 -dur 5s
//	hestress -struct all -scheme all -dur 1s
//	hestress -struct all -scheme all -dur 1s -grow
//	hestress -struct list -scheme HE -offload 1 \
//	  -phases churn:2s,read:1s,stall:2s
//
// Structures: list, map, queue, stack, bst, wfq, skiplist, all. Schemes:
// every name in the smr scheme registry (smr.Schemes; `hestress -h` lists
// them), or all. An unknown structure or scheme name exits with status 2.
// RC is skipped on the structures bench.RCUnsafe excludes. -grow undersizes
// every registry so the dynamic session-growth path (Register past the
// initial capacity) is exercised under full contention; registration never
// fails either way. -valsize N (or zipf:N) attaches a variable-size []byte
// payload to every key of the set-like structures, stressing the byte-class
// sub-allocator's recycle path alongside node reclamation.
//
// -offload N hands retired batches to N background reclaimers per domain.
// -phases shifts the stress regime over a looping schedule — churn
// (update-heavy), read (read-only), stall (a parked reader on pinnable
// structures) — so one run crosses every load shape the reclamation
// pipeline must stay safe under.
// Exit status 1 if any fault was detected.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/bst"
	"repro/internal/hashmap"
	"repro/internal/list"
	"repro/internal/queue"
	"repro/internal/skiplist"
	"repro/internal/stack"
	"repro/internal/wfqueue"
	"repro/smr"
)

type stressTarget struct {
	name string
	run  func(s bench.Scheme, threads int, dur time.Duration) (faults int64, ops int64)
}

// stressTargets is the full structure roster.
func stressTargets() []stressTarget {
	return []stressTarget{
		{"list", stressList},
		{"map", stressMap},
		{"queue", stressQueue},
		{"stack", stressStack},
		{"bst", stressBST},
		{"wfq", stressWFQueue},
		{"skiplist", stressSkipList},
	}
}

// structNames lists the roster's structure names followed by "all".
func structNames() []string {
	var names []string
	for _, t := range stressTargets() {
		names = append(names, t.name)
	}
	return append(names, "all")
}

// parseStructs resolves the -struct flag against the roster; every entry
// must name a structure.
func parseStructs(spec string) ([]stressTarget, error) {
	targets := stressTargets()
	if spec == "all" {
		return targets, nil
	}
	var out []stressTarget
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(targets, func(t stressTarget) bool { return t.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown structure %q (want one of %s)", name, strings.Join(structNames(), ", "))
		}
		out = append(out, targets[i])
	}
	return out, nil
}

func main() {
	var (
		structs = flag.String("struct", "all", strings.Join(structNames(), "|"))
		schemes = flag.String("scheme", "all", strings.Join(smr.SchemeNames(), "|")+"|all")
		threads = flag.Int("threads", 8, "concurrent workers")
		dur     = flag.Duration("dur", time.Second, "stress duration per combination")
		phasesF = flag.String("phases", "", "shift the stress-regime over a phase schedule, e.g. churn:3s,read:3s,stall:3s (looped for the run; stall parks a reader on pinnable structures)")
	)
	envFlags := bench.RegisterEnvFlags(flag.CommandLine)
	flag.Parse()
	growMode = envFlags.Grow

	targets, err := parseStructs(*structs)
	if err != nil {
		fatal(err)
	}
	picked := smr.Schemes()
	if *schemes != "all" {
		if picked, err = bench.ParseSchemes(*schemes); err != nil {
			fatal(err)
		}
	}
	if stressPhases, err = bench.ParsePhases(*phasesF); err != nil {
		fatal(err)
	}
	env, closeEnv, err := envFlags.Env()
	if err != nil {
		fatal(err)
	}
	byteSizer = env.ValSizer

	failed := false
	for _, t := range targets {
		for _, s := range picked {
			if s == smr.RC && bench.RCUnsafe(t.name) {
				fmt.Printf("%-6s %-10s %10s  skipped: Valois RC is re-usage-only on frozen-cell structures (paper [28])\n", t.name, s, "-")
				continue
			}
			faults, ops := t.run(env.Wrap(bench.Of(s)), *threads, *dur)
			status := "OK"
			if faults > 0 {
				status = "FAULTS DETECTED"
				failed = true
			}
			fmt.Printf("%-6s %-10s %10d ops  %3d faults  %s\n", t.name, s, ops, faults, status)
		}
	}
	closeEnv()
	if failed {
		os.Exit(1)
	}
}

// fatal reports a usage or setup error and exits with status 2.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// growMode deliberately undersizes every registry so the slot-block growth
// path (Register past the initial capacity) runs under full stress. With it
// off, capacity is sized to the worker count plus setup/stall headroom;
// either way Register never fails — growth is the tentpole guarantee.
var growMode bool

// byteSizer, when non-nil (-valsize), switches the set-like structures into
// byte-value mode: every key carries a variable-size payload through the
// checked byte-class sub-allocator, so payload use-after-free and overruns
// surface as faults alongside the node-level ones.
var byteSizer func(key uint64) int

// capFor picks the initial session capacity for a stress run.
func capFor(threads int) int {
	if growMode {
		return 2
	}
	return threads + 2
}

// guard converts a memory-fault panic (the checked arena's reaction to a
// use-after-free or double free) into a counted failure and stops the run,
// so one bad scheme/structure combination doesn't abort the whole sweep.
func guard(panics *atomic.Int64, stop *atomic.Bool) {
	if r := recover(); r != nil {
		fmt.Fprintf(os.Stderr, "  detected violation: %v\n", r)
		panics.Add(1)
		stop.Store(true)
	}
}

// byteGetter is the payload-read entry point the set-like structures expose
// in byte-value mode; churnSet drives it so stale payload protection (not
// just stale node protection) is under test.
type byteGetter interface {
	GetBytes(g *smr.Guard, key uint64) ([]byte, bool)
}

// stressPhases, when non-nil (-phases), shifts the stress regime over a
// looping phase schedule: churn/stall phases run 100% updates (stall also
// parks a reader mid-protection on pinnable structures), read phases run
// lookups only. With it nil the classic constant 30%-update mix runs.
var stressPhases []bench.Phase

// stressUpdatePct is the live update probability churnSet workers read;
// the phase scheduler rewrites it at each phase boundary.
var stressUpdatePct atomic.Int32

func init() { stressUpdatePct.Store(30) }

// runPhaseSchedule loops the -phases schedule over s until stop is set,
// switching the update probability and parking a stalled reader during
// stall phases. Callers must wait on the returned channel after setting
// stop (the parked reader has to unregister before the structure drains).
func runPhaseSchedule(s bench.Set, stop *atomic.Bool) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer stressUpdatePct.Store(30)
		pinnable, _ := s.(bench.Pinnable)
		for i := 0; !stop.Load(); i++ {
			ph := stressPhases[i%len(stressPhases)]
			switch ph.Name {
			case "read":
				stressUpdatePct.Store(0)
			default: // churn, stall
				stressUpdatePct.Store(100)
			}
			var release chan struct{}
			var readerDone <-chan struct{}
			if ph.Name == "stall" && pinnable != nil {
				release = make(chan struct{})
				readerDone = bench.StalledReader(pinnable, release)
			}
			deadline := time.Now().Add(ph.Dur)
			for time.Now().Before(deadline) && !stop.Load() {
				time.Sleep(time.Millisecond)
			}
			if release != nil {
				close(release)
				<-readerDone
			}
		}
	}()
	return done
}

// churnSet drives a bench.Set with the paper's update workload and constant
// lookups under a checked arena.
func churnSet(s bench.Set, faultsOf func() int64, threads int, dur time.Duration) (int64, int64) {
	const keyRange = 256
	bg, _ := s.(byteGetter)
	setup := smr.Adopt(s.Domain().Register())
	for k := uint64(0); k < keyRange; k++ {
		s.Insert(setup, k, k)
	}
	setup.Unregister()

	var stop atomic.Bool
	var panics atomic.Int64
	var ops atomic.Int64
	var wg sync.WaitGroup
	var scheduleDone <-chan struct{}
	if stressPhases != nil {
		scheduleDone = runPhaseSchedule(s, &stop)
	}
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			defer guard(&panics, &stop)
			h := smr.Adopt(s.Domain().Register())
			defer h.Unregister()
			rng := bench.NewSplitMix64(seed)
			var local int64
			defer func() { ops.Add(local) }()
			for !stop.Load() {
				k := rng.Intn(keyRange)
				switch {
				case rng.Intn(100) < uint64(stressUpdatePct.Load()):
					if s.Remove(h, k) {
						s.Insert(h, k, k)
					}
				case byteSizer != nil && bg != nil && rng.Intn(2) == 0:
					bg.GetBytes(h, k)
				default:
					s.Contains(h, k)
				}
				local++
			}
		}(uint64(w) + 1)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	if scheduleDone != nil {
		<-scheduleDone
	}
	return faultsOf() + panics.Load(), ops.Load()
}

func stressList(s bench.Scheme, threads int, dur time.Duration) (int64, int64) {
	opts := []list.Option{list.WithChecked(true), list.WithMaxThreads(capFor(threads))}
	if byteSizer != nil {
		opts = append(opts, list.WithByteValues(byteSizer))
	}
	l := list.New(list.DomainFactory(s.Make), opts...)
	faults, ops := churnSet(l, func() int64 { return l.Arena().Stats().Faults }, threads, dur)
	l.Drain()
	return faults, ops
}

func stressMap(s bench.Scheme, threads int, dur time.Duration) (int64, int64) {
	opts := []hashmap.Option{hashmap.WithChecked(true),
		hashmap.WithMaxThreads(capFor(threads)), hashmap.WithBuckets(32)}
	if byteSizer != nil {
		opts = append(opts, hashmap.WithByteValues(byteSizer))
	}
	m := hashmap.New(list.DomainFactory(s.Make), opts...)
	faults, ops := churnSet(m, func() int64 { return m.Arena().Stats().Faults }, threads, dur)
	m.Drain()
	return faults, ops
}

func stressBST(s bench.Scheme, threads int, dur time.Duration) (int64, int64) {
	opts := []bst.Option{bst.WithChecked(true), bst.WithMaxThreads(capFor(threads))}
	if byteSizer != nil {
		opts = append(opts, bst.WithByteValues(byteSizer))
	}
	t := bst.New(bst.DomainFactory(s.Make), opts...)
	faults, ops := churnSet(t, func() int64 { return t.Arena().Stats().Faults }, threads, dur)
	t.Drain()
	return faults, ops
}

func stressQueue(s bench.Scheme, threads int, dur time.Duration) (int64, int64) {
	q := queue.New(queue.DomainFactory(s.Make), queue.WithChecked(true), queue.WithMaxThreads(capFor(threads)))
	var stop atomic.Bool
	var panics atomic.Int64
	var ops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(producer bool) {
			defer wg.Done()
			defer guard(&panics, &stop)
			h := q.Register()
			defer h.Unregister()
			var local int64
			defer func() { ops.Add(local) }()
			for !stop.Load() {
				if producer {
					q.Enqueue(h, uint64(local))
				} else {
					q.Dequeue(h)
				}
				local++
			}
		}(w%2 == 0)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	faults := q.Arena().Stats().Faults + panics.Load()
	q.Drain()
	return faults, ops.Load()
}

func stressStack(s bench.Scheme, threads int, dur time.Duration) (int64, int64) {
	st := stack.New(stack.DomainFactory(s.Make), stack.WithChecked(true), stack.WithMaxThreads(capFor(threads)))
	var stop atomic.Bool
	var panics atomic.Int64
	var ops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer guard(&panics, &stop)
			h := st.Register()
			defer h.Unregister()
			var local int64
			defer func() { ops.Add(local) }()
			for !stop.Load() {
				if (int64(w)+local)%2 == 0 {
					st.Push(h, uint64(local))
				} else {
					st.Pop(h)
				}
				local++
			}
		}(w)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	faults := st.Arena().Stats().Faults + panics.Load()
	st.Drain()
	return faults, ops.Load()
}

func stressWFQueue(s bench.Scheme, threads int, dur time.Duration) (int64, int64) {
	q := wfqueue.New(wfqueue.DomainFactory(s.Make), wfqueue.WithChecked(true), wfqueue.WithMaxThreads(capFor(threads)))
	var stop atomic.Bool
	var panics atomic.Int64
	var ops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(producer bool) {
			defer wg.Done()
			defer guard(&panics, &stop)
			h := q.Register()
			defer q.Unregister(h)
			var local int64
			defer func() { ops.Add(local) }()
			for !stop.Load() {
				if producer {
					q.Enqueue(h, uint64(local))
				} else {
					q.Dequeue(h)
				}
				local++
			}
		}(w%2 == 0)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	faults := q.NodeArena().Stats().Faults + q.DescArena().Stats().Faults + panics.Load()
	q.Drain()
	return faults, ops.Load()
}

func stressSkipList(s bench.Scheme, threads int, dur time.Duration) (int64, int64) {
	opts := []skiplist.Option{skiplist.WithChecked(true), skiplist.WithMaxThreads(capFor(threads))}
	if byteSizer != nil {
		opts = append(opts, skiplist.WithByteValues(byteSizer))
	}
	sl := skiplist.New(skiplist.DomainFactory(s.Make), opts...)
	faults, ops := churnSet(sl, func() int64 { return sl.Arena().Stats().Faults }, threads, dur)
	sl.Drain()
	return faults, ops
}
