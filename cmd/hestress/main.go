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
//	hestress -struct list -scheme HE -phases churn:2s,read:1s,stall:2s
//
// Structures: every row of the structure table (bench.Structures; `hestress
// -h` lists them), or all. Schemes: every name in the smr scheme registry
// (smr.Schemes), or all. An unknown structure or scheme name exits with
// status 2. RC is skipped on the rows that do not admit it. Set rows run a
// churn of updates and lookups, FIFO rows split producers from consumers,
// LIFO rows alternate push and pop. -grow undersizes every registry so the
// dynamic session-growth path (Register past the initial capacity) is
// exercised under full contention; registration never fails either way.
// -valsize N (or zipf:N) attaches a variable-size []byte payload to every
// key of the set rows, stressing the byte-class sub-allocator's recycle
// path alongside node reclamation.
//
// -phases shifts the stress regime over a looping schedule — churn
// (update-heavy), read (read-only), stall (a parked reader on pinnable
// structures) — so one run crosses every load shape reclamation must stay
// safe under.
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
	"repro/smr"
)

func main() {
	var (
		structs = flag.String("struct", "all", strings.Join(bench.StructNames(), "|"))
		schemes = flag.String("scheme", "all", strings.Join(smr.SchemeNames(), "|")+"|all")
		threads = flag.Int("threads", 8, "concurrent workers")
		dur     = flag.Duration("dur", time.Second, "stress duration per combination")
		phasesF = flag.String("phases", "", "shift the stress-regime over a phase schedule, e.g. churn:3s,read:3s,stall:3s (looped for the run; stall parks a reader on pinnable structures)")
	)
	envFlags := bench.RegisterEnvFlags(flag.CommandLine)
	flag.Parse()

	targets, err := bench.ParseStructs(*structs)
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
	sessions := *threads + 2
	if envFlags.Grow {
		sessions = 2
	}

	failed := false
	for _, t := range targets {
		for _, s := range picked {
			if !t.Admits(s) {
				fmt.Printf("%-6s %-10s %10s  skipped: Valois RC is re-usage-only on frozen-cell structures (paper [28])\n", t.Name, s, "-")
				continue
			}
			b := t.New(env.Wrap(bench.Of(s)).Make, true, sessions, env.ValSizer)
			faults, ops := stress(b, t.Kind, env.ValSizer != nil, *threads, *dur)
			status := "OK"
			if faults > 0 {
				status = "FAULTS DETECTED"
				failed = true
			}
			fmt.Printf("%-6s %-10s %10d ops  %3d faults  %s\n", t.Name, s, ops, faults, status)
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

// stress drives b for dur with checked arenas: a set with churnSet (bytes
// when it holds byte values), a FIFO or LIFO with roles. It returns the
// detected faults and the operations run, and drains b.
func stress(b bench.Built, kind bench.Kind, bytes bool, threads int, dur time.Duration) (int64, int64) {
	var panics, ops int64
	if b.Set != nil {
		panics, ops = churnSet(b.Set, bytes, threads, dur)
	} else {
		panics, ops = drive(threads, dur, roles(b, kind))
	}
	faults := b.Faults() + panics
	b.Drain()
	return faults, ops
}

// drive runs threads workers until dur elapses. open gets a worker's index,
// opens its session and returns its step (called with the worker's
// operation count) and the session's close. drive returns the faults the
// workers panicked with and the operations they ran.
func drive(threads int, dur time.Duration, open func(w int) (step func(i int64), done func())) (int64, int64) {
	var stop atomic.Bool
	var panics atomic.Int64
	var ops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer guard(&panics, &stop)
			step, done := open(w)
			defer done()
			var local int64
			defer func() { ops.Add(local) }()
			for !stop.Load() {
				step(local)
				local++
			}
		}(w)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return panics.Load(), ops.Load()
}

// churnSet drives a set with a 30%-update mix (or the -phases schedule)
// over 256 keys; with byte values, half the lookups copy the payload out,
// so stale payload protection is under test alongside node protection.
func churnSet(s bench.Set, bytes bool, threads int, dur time.Duration) (int64, int64) {
	const keyRange = 256
	bg, _ := s.(interface {
		GetBytes(g *smr.Guard, key uint64) ([]byte, bool)
	})
	setup := s.Register()
	for k := uint64(0); k < keyRange; k++ {
		s.Insert(setup, k, k)
	}
	setup.Unregister()

	var stop atomic.Bool
	var scheduleDone <-chan struct{}
	if stressPhases != nil {
		scheduleDone = runPhaseSchedule(s, &stop)
	}
	panics, ops := drive(threads, dur, func(w int) (func(int64), func()) {
		h := s.Register()
		rng := bench.NewSplitMix64(uint64(w) + 1)
		return func(int64) {
			k := rng.Intn(keyRange)
			switch {
			case rng.Intn(100) < uint64(stressUpdatePct.Load()):
				if s.Remove(h, k) {
					s.Insert(h, k, k)
				}
			case bytes && bg != nil && rng.Intn(2) == 0:
				bg.GetBytes(h, k)
			default:
				s.Contains(h, k)
			}
		}, h.Unregister
	})
	stop.Store(true)
	if scheduleDone != nil {
		<-scheduleDone
	}
	return panics, ops
}

// roles is the FIFO/LIFO worker body: on a FIFO row even workers enqueue
// and odd ones dequeue; on a LIFO row every worker alternates push and pop.
func roles(b bench.Built, kind bench.Kind) func(w int) (func(int64), func()) {
	return func(w int) (func(int64), func()) {
		push, pop, done := b.Open()
		return func(i int64) {
			if kind == bench.KindFIFO && w%2 == 0 || kind == bench.KindLIFO && (int64(w)+i)%2 == 0 {
				push(uint64(i))
			} else {
				pop()
			}
		}, done
	}
}
