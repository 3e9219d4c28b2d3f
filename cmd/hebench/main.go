// Command hebench regenerates the evaluation of the Hazard Eras paper: the
// Figure-4 throughput panels, Table 1 (classification, measured per-node
// synchronization, measured memory bounds), the Equation-1 bound check, the
// Appendix-A stalled-reader contrast, and the §3.4 ablations.
//
// Usage:
//
//	hebench -exp fig4 -dur 1s -threads 1,2,4,8
//	hebench -exp table1
//	hebench -exp all -dur 500ms -csv
//	hebench -exp fig4 -grow        # undersized registries: exercise slot-block growth
//
// Experiments: fig4, table1, bound, kadvance, minmax, stalled, oversub,
// rfactor, schemes, all. The schemes experiment is the roster throughput
// comparison behind BENCH_schemes.json (hyaline-1r, hyaline and WFE
// alongside the rest), timed with interleaved slices. The cost the smr
// Guard adds over the internal session handle is read from cmd/heperf's
// traced ledger (smr.load_ns against reclaim.handle_protect_ns).
//
// Every -threads and -sizes entry must be at least 1 and every -updates
// entry at most 100; anything else exits with status 2.
//
// Every domain runs the default configuration: the retiring session scans
// inline once per ScanR·H retires since its last scan (H = sessions
// registered × slots; the Equation-1 experiments run the paper's scan on
// every retire).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "fig4", "experiment: fig4|table1|bound|kadvance|minmax|stalled|oversub|rfactor|schemes|all")
		dur     = flag.Duration("dur", 200*time.Millisecond, "measured duration per benchmark cell")
		threads = flag.String("threads", "1,2,4,8", "comma-separated worker counts")
		sizes   = flag.String("sizes", "100,1000,10000", "comma-separated list sizes (fig4)")
		updates = flag.String("updates", "0,10,100", "comma-separated update percentages (fig4)")
		seed    = flag.Uint64("seed", 42, "PRNG seed")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		hold    = flag.Duration("hold", 0, "keep the -metrics endpoint alive this long after the experiments finish (so scrapers catch the final state)")
	)
	envFlags := bench.RegisterEnvFlags(flag.CommandLine)
	flag.Parse()

	threadList, sizeList, updateList, err := parseGrid(*threads, *sizes, *updates)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	env, closeEnv, err := envFlags.Env()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer closeEnv()
	if envFlags.Metrics != "" {
		defer time.Sleep(*hold)
	}

	o := bench.Options{
		Dur:     *dur,
		Threads: threadList,
		Updates: updateList,
		Sizes:   sizeList,
		Seed:    *seed,
		CSV:     *csv,
		Grow:    envFlags.Grow,
		Env:     env,
	}

	fmt.Printf("hazard-eras benchmark harness — GOMAXPROCS=%d, NumCPU=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	if env.ValSizer != nil {
		fmt.Printf("byte-value mode: every key carries a -valsize=%s payload through the size-class arena\n", envFlags.ValSize)
	}
	if runtime.NumCPU() < 4 {
		fmt.Println("note: few cores available; thread counts above NumCPU measure the")
		fmt.Println("oversubscribed regime (also part of the paper's evaluation).")
	}

	run := func(name string) {
		switch name {
		case "fig4":
			bench.Figure4(os.Stdout, o)
		case "table1":
			bench.Table1(os.Stdout, o)
		case "bound":
			bench.EquationOneBound(os.Stdout, o)
		case "kadvance":
			bench.KAdvance(os.Stdout, o)
		case "minmax":
			bench.MinMax(os.Stdout, o)
		case "stalled":
			bench.Stalled(os.Stdout, o)
		case "oversub":
			bench.Oversubscription(os.Stdout, o)
		case "rfactor":
			bench.RFactor(os.Stdout, o)
		case "schemes":
			bench.SchemesCompare(os.Stdout, o)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "fig4", "bound", "kadvance", "rfactor", "minmax", "oversub", "stalled", "schemes"} {
			run(name)
		}
		return
	}
	for _, name := range strings.Split(*exp, ",") {
		run(strings.TrimSpace(name))
	}
}

// parseGrid parses the -threads, -sizes and -updates lists. Every entry
// must be an integer, thread counts and sizes at least 1 (a size of 0 has
// no key to draw) and update percentages in 0..100.
func parseGrid(threads, sizes, updates string) (th []int, sz []uint64, upd []int, err error) {
	if th, err = parseInts("threads", threads, 1, math.MaxInt); err != nil {
		return nil, nil, nil, err
	}
	ns, err := parseInts("sizes", sizes, 1, math.MaxInt)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, n := range ns {
		sz = append(sz, uint64(n))
	}
	if upd, err = parseInts("updates", updates, 0, 100); err != nil {
		return nil, nil, nil, err
	}
	return th, sz, upd, nil
}

func parseInts(name, s string, lo, hi int) ([]int, error) {
	want := fmt.Sprintf("an integer >= %d", lo)
	if hi < math.MaxInt {
		want = fmt.Sprintf("an integer in %d..%d", lo, hi)
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < lo || n > hi {
			return nil, fmt.Errorf("bad -%s entry %q: want %s", name, part, want)
		}
		out = append(out, n)
	}
	return out, nil
}
