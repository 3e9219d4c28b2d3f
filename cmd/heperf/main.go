// Command heperf is the repository's benchmark: Hazard Eras against Hazard
// Pointers on four seeded workloads, driven only through the public smr
// package and the structures' exported methods.
//
// An untraced run reports the end-to-end metrics; a traced run reports the
// per-layer ones (a cost ledger over the read and write paths, reclamation
// and allocator counts, structure spans) and writes spans.jsonl and
// layers.json. Every run checks the structures' outputs and exits non-zero
// if any is wrong.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash cmd/heperf/run.sh -seed 1 -out run.json                # every workload, untraced
//	bash cmd/heperf/run.sh -workload traverse -seed 2 -trace 1  # one workload, traced
//	bash cmd/heperf/run.sh compare base/*.json change/*.json    # apply BENCHMARK.json's bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the workloads,
// the metrics, and how the bounds were measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// defaultTraceDir is where -trace 1 writes spans.jsonl and layers.json.
const defaultTraceDir = ".bench_build/heperf-trace"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("heperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "all, or one of traverse, churn, payload, stall")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 24, "measured seconds per workload; sets the number of rounds")
	traceArg := fs.String("trace", "0", "0: untraced, end-to-end metrics; 1: traced, per-layer metrics, spans under "+
		defaultTraceDir+"; any other value: traced, spans under that directory")
	out := fs.String("out", "", "also write the full result (sample counts, raw values, provenance) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "heperf: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "heperf:", err)
			return 2
		}
		selected = []workload{*w}
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "heperf: -seconds must be positive")
		return 2
	}

	traceDir, tracing := *traceArg, true
	switch *traceArg {
	case "", "0":
		traceDir, tracing = "", false
	case "1":
		traceDir = defaultTraceDir
	}

	// Two closed-loop workers, capped at the core count. The coordinator gets
	// a P of its own: it sleeps between its 1 ms Stats() polls, and without
	// a spare P it would wait for the scheduler's 10 ms preemption of a
	// worker before each poll.
	workers := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(workers + 1)
	// A round is one calibration window plus one window per scheme, and a
	// traced round one more per scheme.
	slots := 1 + len(measured)
	if tracing {
		slots += len(measured)
	}
	rounds := max(1, int(*seconds*float64(time.Second)/float64(time.Duration(slots)*windowLen)))
	cfg := config{seed: *seed, workers: workers, window: windowLen, rounds: rounds, trace: tracing}

	prov := newProvenance(cfg.seed)
	fmt.Fprintf(stdout, "heperf seed=%d nproc=%d GOMAXPROCS=%d workers=%d %s revision=%s\n",
		prov.Seed, prov.Nproc, prov.GOMAXPROCS, cfg.workers, prov.GoVersion, prov.Revision)
	r, layers, sources := execute(cfg, selected, stdout)
	r.Provenance = prov

	if tracing {
		if err := writeTrace(traceDir, sources, layers); err != nil {
			fmt.Fprintln(stderr, "heperf: writing trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s\n", traceDir)
	}
	if *out != "" {
		r.Provenance.CPU = cpuModel()
		if err := writeJSON(*out, r); err != nil {
			fmt.Fprintln(stderr, "heperf: writing result:", err)
			return 1
		}
	}
	line, err := json.Marshal(summary(r))
	if err != nil {
		fmt.Fprintln(stderr, "heperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// layerReport is one workload's entry in layers.json.
type layerReport struct {
	Metrics     []metric     `json:"metrics"`
	Ledger      []ledgerStat `json:"ledger"`
	LedgerCheck []string     `json:"ledger_check"`
}

// execute runs the selected workloads and prints each one's table.
func execute(cfg config, selected []workload, stdout io.Writer) (*result, map[string]*layerReport, []spanSource) {
	r := &result{Correct: true, Workloads: map[string]*workloadResult{}}
	layers := map[string]*layerReport{}
	var sources []spanSource
	var lg *ledger
	if cfg.trace {
		lg = runLedger(cfg.seed)
		for _, c := range lg.check {
			fmt.Fprintln(stdout, "ledger check:", c)
		}
	}
	for i := range selected {
		w := &selected[i]
		wr, src := runWorkload(w, cfg, lg)
		printTable(stdout, w.name, wr)
		r.Workloads[w.name] = wr
		r.Attempted += wr.Attempted
		r.Failed += wr.Failed
		if wr.Failed > 0 || len(wr.Problems) > 0 {
			r.Correct = false
		}
		sources = append(sources, src...)
		if lg != nil {
			layers[w.name] = &layerReport{Metrics: wr.Metrics, Ledger: lg.stats, LedgerCheck: lg.check}
		}
	}
	return r, layers, sources
}
