// Stalled reader: the paper's Appendix-A contrast, live — and the same
// runaway surfaced as a health-monitor alert instead of a plot.
//
// Run with: go run ./examples/stalledreader
//
// One reader parks inside a read-side critical section (the paper's
// "sleepy" reader D) while a writer churns remove+reinsert updates. Under
// epoch-based reclamation nothing can ever be freed again and the limbo
// list grows with every update; under Hazard Eras only the nodes that were
// alive when the reader stalled stay pinned — everything born later is
// reclaimed, keeping memory bounded (Equation 1).
//
// The run is instrumented end to end: allocations are lifecycle-traced
// (1 in 8 sampled) and the online health monitor evaluates its invariants
// after each churn chunk. While the reader is parked the era-stall invariant
// breaches (one session pins an era beyond the stall threshold — the
// Figure-4 signature) and the monitor RAISES an alert; the run then wakes
// the reader, keeps churning, and the same invariant goes clean, so the
// monitor CLEARS it. Both transitions print as ALERT lines. The
// unreclaimed/freed table is captured at the end of the parked phase, so
// it still shows the Appendix-A contrast.
//
// With -sample the run also records the pending-over-time curve, the
// sampled per-ref lifecycle spans, and the alert transitions as JSON
// lines:
//
//	go run ./examples/stalledreader -sample pending.jsonl
//	go run ./cmd/heanalyze pending.jsonl
//
// heanalyze renders the reclamation-age histogram and the longest-pinned
// table — which attributes the pinned refs to the stalled session's era.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/list"
	"repro/internal/obs"
	"repro/smr"
)

const (
	listSize   = 100
	churnOps   = 24_000
	stallTicks = 3 // monitor evaluations while the reader is parked
	clearTicks = 3 // monitor evaluations after the reader wakes

	// 1-in-2^3 lifecycle sampling by default: cheap enough to leave on for
	// the whole example while still tagging ~1/8 of the pinned survivors,
	// so the longest-pinned table has entries to attribute to the sleepy
	// reader. (Each churn chunk must retire more than the obs stall
	// threshold of 1024 eras for the stalled gauge to trip; 24k ops over 6
	// chunks does.)
	traceShift = 3
)

// tick captures a snapshot (when sampling) and runs one monitor
// evaluation. Driving Step from the churn loop instead of the wall-clock
// ticker makes the raise/clear sequence deterministic: with RaiseTicks=2
// the era-stall alert raises on the second parked-phase tick and clears on
// the second woken-phase tick.
func tick(mon *obs.Monitor, smp *obs.Sampler, hub *obs.Hub) {
	if smp != nil {
		smp.Sample(hub.Domains())
	}
	mon.Step()
}

func churnWithStalledReader(s bench.Scheme, hub *obs.Hub, smp *obs.Sampler, mon *obs.Monitor) (pending, freed int64) {
	l := list.New(s.Make, list.WithMaxThreads(4))
	dom := l.Domain()

	setup := l.Register()
	for k := uint64(0); k < listSize; k++ {
		l.Insert(setup, k, k)
	}
	setup.Unregister()

	// The sleepy reader: pinned mid-operation until released.
	release := make(chan struct{})
	done := bench.StalledReader(l, release)

	writer := l.Register()
	defer writer.Unregister()
	rng := bench.NewSplitMix64(7)
	churn := func(ops int) {
		for i := 0; i < ops; i++ {
			k := rng.Intn(listSize)
			if l.Remove(writer, k) {
				l.Insert(writer, k, k)
			}
		}
	}
	chunk := churnOps / (stallTicks + clearTicks)

	// Phase 1 — reader parked: the era clock races ahead of the parked
	// session's published era, the stalled-session gauge goes nonzero, and
	// the monitor raises era-stall.
	for i := 0; i < stallTicks; i++ {
		churn(chunk)
		tick(mon, smp, hub)
	}
	st := dom.Stats()
	pending, freed = st.Pending, st.Freed

	// Phase 2 — wake the reader and keep churning: the stalled gauge drops
	// to zero and the monitor clears the alert after ClearTicks clean ticks.
	close(release)
	<-done
	for i := 0; i < clearTicks; i++ {
		churn(chunk)
		tick(mon, smp, hub)
	}
	return pending, freed
}

func main() {
	samplePath := flag.String("sample", "", "record obs snapshots, lifecycle spans and alerts as JSON lines to this file (analyze with cmd/heanalyze)")
	every := flag.Duration("sample-every", 25*time.Millisecond, "sampling interval for -sample")
	shift := flag.Uint("trace", traceShift, "lifecycle sampling shift: trace 1 in 2^N allocations (larger = smaller -sample files)")
	flag.Parse()

	hub := obs.NewHub()
	env := bench.Env{Hub: hub, Trace: obs.TraceConfig{Enabled: true, SampleShift: *shift}}
	defer hub.Close()

	var smp *obs.Sampler
	if *samplePath != "" {
		var err error
		smp, err = obs.StartFileSampler(*samplePath, *every, hub.Domains)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		hub.SetSampler(smp)
	}

	mon := obs.NewMonitor(obs.MonitorConfig{RaiseTicks: 2, ClearTicks: 2}, hub.Domains)
	mon.SetOnAlert(func(a obs.Alert) {
		fmt.Printf("  ALERT %-5s %-12s %-16s value=%d threshold=%d — %s\n",
			a.State, a.Scheme, a.Invariant, a.Value, a.Threshold, a.Detail)
		if smp != nil {
			smp.WriteAlert(a)
		}
	})
	hub.SetMonitor(mon)
	// Deliberately not Started: churnWithStalledReader drives mon.Step()
	// aligned with its churn chunks, so the transitions are deterministic.

	fmt.Printf("list of %d nodes, %d churn updates, one reader asleep mid-traversal\n", listSize, churnOps)
	fmt.Printf("(node table below is captured while the reader is still parked)\n\n")
	fmt.Printf("%-12s %18s %12s\n", "scheme", "unreclaimed nodes", "nodes freed")
	for _, s := range []smr.Scheme{smr.HE, smr.HP, smr.WFE, smr.Hyaline, smr.HyalinePlain, smr.EBR} {
		pending, freed := churnWithStalledReader(env.Wrap(bench.Of(s)), hub, smp, mon)
		fmt.Printf("%-12s %18d %12d\n", s, pending, freed)
	}

	fmt.Println("\nhealth monitor era-stall summary:")
	for _, st := range mon.Status() {
		if st.Invariant != "era-stall" || st.Raises == 0 {
			continue
		}
		fmt.Printf("  %-12s raised %d, cleared %d, active now: %v\n",
			st.Scheme, st.Raises, st.Clears, st.Active)
	}

	if *samplePath != "" {
		fmt.Printf("\nsnapshots, lifecycle spans and alerts written to %s (JSON lines;\n", *samplePath)
		fmt.Println("plot pending vs t_ms grouped by scheme for the Figure-4 curve, or run")
		fmt.Println("`go run ./cmd/heanalyze` on it for per-ref timelines and the pinned table).")
	}
	fmt.Println("\nEBR frees nothing while the reader sleeps: the reader pins its epoch and")
	fmt.Println("the limbo list grows with churn (unbounded) — and non-robust hyaline, which")
	fmt.Println("hands every batch to every active session, inherits exactly that curve.")
	fmt.Println("HE, HP, WFE and hyaline-1r keep reclaiming: their pending sets stay")
	fmt.Println("bounded by the nodes alive when the reader stalled (Equation 1; the")
	fmt.Println("birth-era filter plays that role in robust Hyaline).")
	fmt.Println("(URCU is worse still: its synchronize_rcu would BLOCK the writer forever.)")
	fmt.Println("The era-stall alerts above are the same contrast, online: the eras schemes")
	fmt.Println("raise while the reader sleeps and clear once it wakes.")
}
