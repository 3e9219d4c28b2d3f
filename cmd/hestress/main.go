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
// HP, HE, HE-minmax, IBR, EBR, URCU, hyaline-1r, hyaline, WFE, RC, NONE,
// all. -grow undersizes every
// registry so the dynamic session-growth path (Register past the initial
// capacity) is exercised under full contention; registration never fails
// either way. -valsize N (or zipf:N) attaches a variable-size []byte
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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/bst"
	"repro/internal/hashmap"
	"repro/internal/list"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/reclaim"
	"repro/internal/skiplist"
	"repro/internal/stack"
	"repro/internal/wfqueue"
	"repro/smr"
)

type stressTarget struct {
	name string
	run  func(s bench.Scheme, threads int, dur time.Duration) (faults int64, ops int64)
	// rcUnsafe marks structures with interior cells that deletion freezes
	// forever (list-shaped traversals): Valois-style reference counting is
	// unsound for true reclamation there (paper §1 on [28]) and is skipped.
	// The wait-free queue is also marked: its helping protocol hands
	// descriptor refs between threads through the announcement array, and
	// slot-level counts cannot distinguish slot incarnations across the
	// recycle a helper races with — checked runs fault nondeterministically
	// on a stale descriptor dereference in help(). RC is re-usage-only
	// there too.
	rcUnsafe bool
}

// stressTargets is the full roster with its RC-exclusion markings; package
// level so the regression test can pin the exclusion set (notably wfq —
// see FAULT-WFQ-RC-001 in internal/wfqueue).
func stressTargets() []stressTarget {
	return []stressTarget{
		{"list", stressList, true},
		{"map", stressMap, true},
		{"queue", stressQueue, false},
		{"stack", stressStack, false},
		{"bst", stressBST, true},
		{"wfq", stressWFQueue, true},
		{"skiplist", stressSkipList, true},
	}
}

func main() {
	var (
		structs = flag.String("struct", "all", "list|map|queue|stack|bst|wfq|skiplist|all")
		schemes = flag.String("scheme", "all", "HP|HE|HE-minmax|IBR|EBR|URCU|hyaline-1r|hyaline|WFE|RC|NONE|all")
		threads = flag.Int("threads", 8, "concurrent workers")
		dur     = flag.Duration("dur", time.Second, "stress duration per combination")
		grow    = flag.Bool("grow", false, "undersize the registries (initial capacity 2) so every run exercises dynamic session growth")
		metrics = flag.String("metrics", "", "serve live metrics on this address (/metrics, /metrics.json, /events.json, /debug/pprof); e.g. :9090")
		sample  = flag.String("sample", "", "append per-domain observability snapshots to this file as JSON lines")
		every   = flag.Duration("sample-every", 100*time.Millisecond, "sampling interval for -sample")
		offload = flag.Int("offload", 0, "background reclaimer goroutines per domain (0 = inline reclamation)")
		valsize = flag.String("valsize", "0", "per-key []byte payload size for set-like structures: 0 = word values (off), N = fixed N bytes, zipf:N = skewed sizes in [8,N]")
		trace   = flag.String("trace", "", "sampled per-ref lifecycle tracing: \"all\" = every allocation, N = 1 in 2^N")
		monitor = flag.Bool("monitor", false, "run the online health monitor: invariant alerts at /alerts.json and smr_alerts_*, alert lines to -sample")
		phasesF = flag.String("phases", "", "shift the stress-regime over a phase schedule, e.g. churn:3s,read:3s,stall:3s (looped for the run; stall parks a reader on pinnable structures)")
	)
	flag.Parse()
	growMode = *grow

	if *offload > 0 {
		bench.SetOffload(reclaim.OffloadConfig{Workers: *offload})
	}
	if *phasesF != "" {
		ph, err := bench.ParsePhases(*phasesF)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		stressPhases = ph
	}

	var err error
	byteSizer, err = bench.ParseValSizer(*valsize)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *trace != "" {
		tc, err := bench.ParseTrace(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		bench.SetObsTrace(tc)
	}

	if *metrics != "" || *sample != "" || *trace != "" || *monitor {
		hub := obs.NewHub()
		bench.SetObsHub(hub)
		// Close stops the monitor, flushes and stops the sampler, and joins
		// the metrics server — in that order, so shutdown alerts still reach
		// the sample file. Runs after the final sample below.
		defer hub.Close()
		if *metrics != "" {
			addr, _, err := hub.Serve(*metrics)
			if err != nil {
				fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("metrics: http://%s/metrics\n", addr)
		}
		var smp *obs.Sampler
		if *sample != "" {
			var err error
			smp, err = obs.StartFileSampler(*sample, *every, hub.Domains)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sample: %v\n", err)
				os.Exit(1)
			}
			hub.SetSampler(smp)
			defer func() { smp.Sample(hub.Domains()) }()
		}
		if *monitor {
			mon := obs.NewMonitor(obs.MonitorConfig{}, hub.Domains)
			mon.SetOnAlert(func(a obs.Alert) {
				if smp != nil {
					smp.WriteAlert(a)
				}
			})
			hub.SetMonitor(mon)
			mon.Start()
		}
	}

	roster := map[string]bench.Scheme{}
	for _, s := range bench.AllSchemes() {
		roster[s.Name] = s
	}
	var picked []bench.Scheme
	if *schemes == "all" {
		picked = bench.AllSchemes()
	} else {
		for _, name := range strings.Split(*schemes, ",") {
			s, ok := roster[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown scheme %q\n", name)
				os.Exit(2)
			}
			picked = append(picked, s)
		}
	}

	targets := stressTargets()
	if *structs != "all" {
		want := map[string]bool{}
		for _, n := range strings.Split(*structs, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var filtered []stressTarget
		for _, t := range targets {
			if want[t.name] {
				filtered = append(filtered, t)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "no structures matched %q\n", *structs)
			os.Exit(2)
		}
		targets = filtered
	}

	failed := false
	for _, t := range targets {
		for _, s := range picked {
			if t.rcUnsafe && s.Name == "RC" {
				fmt.Printf("%-6s %-10s %10s  skipped: Valois RC is re-usage-only on frozen-cell structures (paper [28])\n", t.name, s.Name, "-")
				continue
			}
			faults, ops := t.run(s, *threads, *dur)
			status := "OK"
			if faults > 0 {
				status = "FAULTS DETECTED"
				failed = true
			}
			fmt.Printf("%-6s %-10s %10d ops  %3d faults  %s\n", t.name, s.Name, ops, faults, status)
		}
	}
	if failed {
		os.Exit(1)
	}
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
