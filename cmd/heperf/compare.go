package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare applies.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts, per pair of end-to-end metric and workload.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved" // a side's IQR spread exceeds the bound
)

// comparison is the base side (A) against the change (B) on one metric and
// workload. change is B's median relative to A's, signed so that positive
// means worse.
type comparison struct {
	a, b          []float64
	ma, a1, a3    float64
	mb, b1, b3    float64
	change        float64
	verdict       string
	lowerIsBetter bool
}

func judge(a, b []float64, bound float64, lowerIsBetter bool) comparison {
	c := comparison{a: a, b: b, ma: median(a), mb: median(b), lowerIsBetter: lowerIsBetter}
	c.a1, c.a3 = quartiles(a)
	c.b1, c.b3 = quartiles(b)
	c.change = relative(c.mb-c.ma, c.ma)
	if !lowerIsBetter {
		c.change = -c.change
	}
	spread := max(relative(c.a3-c.a1, c.ma), relative(c.b3-c.b1, c.mb))
	switch {
	case spread > bound:
		c.verdict = unresolved
		if c.beats(slices.Max(b), slices.Min(a)) && c.beats(slices.Min(b), slices.Max(a)) {
			c.verdict = better // every run of B reads better than every run of A
		}
	case c.change > bound:
		c.verdict = worse
	case c.change < -bound:
		c.verdict = better
	default:
		c.verdict = unchanged
	}
	return c
}

// beats reports whether x reads strictly better than y.
func (c comparison) beats(x, y float64) bool {
	if c.lowerIsBetter {
		return x < y
	}
	return x > y
}

// relative returns d as a share of base.
func relative(d, base float64) float64 {
	if base == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / math.Abs(base)
}

// claimMet applies the rule for claiming a gain: B wins at least nine in ten
// of the runs paired in file order, and the medians differ, in B's favour,
// by more than the distance between A's quartiles.
func (c comparison) claimMet() (wins, pairs int, ok bool) {
	pairs = min(len(c.a), len(c.b))
	for i := 0; i < pairs; i++ {
		if c.beats(c.b[i], c.a[i]) {
			wins++
		}
	}
	ok = pairs > 0 && wins*10 >= 9*pairs && c.beats(c.mb, c.ma) && math.Abs(c.mb-c.ma) > c.a3-c.a1
	return wins, pairs, ok
}

// sides groups result files by directory, in order of first appearance:
// the first directory is the base, the second the change.
func sides(files []string) ([][]string, error) {
	var dirs []string
	groups := map[string][]string{}
	for _, f := range files {
		d := filepath.Dir(f)
		if _, ok := groups[d]; !ok {
			dirs = append(dirs, d)
		}
		groups[d] = append(groups[d], f)
	}
	if len(dirs) != 2 {
		return nil, fmt.Errorf("want result files from exactly two directories (base, change), got %d: %s", len(dirs), strings.Join(dirs, ", "))
	}
	out := [][]string{groups[dirs[0]], groups[dirs[1]]}
	for _, g := range out {
		slices.Sort(g)
	}
	return out, nil
}

// values collects every file's value of each metric, keyed workload/metric.
func values(files []string) (map[string][]float64, error) {
	v := map[string][]float64{}
	for _, f := range files {
		r, err := readResult(f)
		if err != nil {
			return nil, err
		}
		for name, wr := range r.Workloads {
			for _, m := range wr.Metrics {
				k := name + "/" + m.Name
				v[k] = append(v[k], m.Value)
			}
		}
	}
	return v, nil
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("heperf compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each end-to-end metric's bound")
	claim := fs.String("claim", "", "METRIC@WORKLOAD a change claims to improve, e.g. he.mops@traverse")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "heperf compare:", err)
		return 2
	}
	groups, err := sides(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "heperf compare:", err)
		return 2
	}
	var va, vb map[string][]float64
	if va, err = values(groups[0]); err == nil {
		vb, err = values(groups[1])
	}
	if err != nil {
		fmt.Fprintln(stderr, "heperf compare:", err)
		return 2
	}

	var names []string
	for k := range va {
		if _, ok := vb[k]; ok {
			names = append(names, k)
		}
	}
	slices.Sort(names)
	fmt.Fprintf(stdout, "A = %s (%d files), B = %s (%d files)\n", filepath.Dir(groups[0][0]), len(groups[0]), filepath.Dir(groups[1][0]), len(groups[1]))
	fmt.Fprintf(stdout, "%-30s %6s  %-30s  %-30s %8s  %s\n", "workload/metric", "bound", "A median [q1, q3] n", "B median [q1, q3] n", "change", "verdict")
	status := 0
	judged := map[string]comparison{}
	for _, e := range spec.EndToEnd {
		for _, k := range names {
			if !strings.HasSuffix(k, "/"+e.Name) {
				continue
			}
			c := judge(va[k], vb[k], e.Bound, e.Better == "lower")
			judged[k] = c
			fmt.Fprintf(stdout, "%-30s %5.0f%%  %-30s  %-30s %+7.1f%%  %s\n", k, 100*e.Bound,
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", c.ma, c.a1, c.a3, len(c.a)),
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", c.mb, c.b1, c.b3, len(c.b)),
				100*c.change, c.verdict)
			if c.verdict == worse {
				status = 1
			}
		}
	}
	if *claim != "" {
		metricName, wl, ok := strings.Cut(*claim, "@")
		c, found := judged[wl+"/"+metricName]
		if !ok || !found {
			fmt.Fprintf(stderr, "heperf compare: -claim %q names no end-to-end metric and workload present on both sides\n", *claim)
			return 2
		}
		wins, pairs, met := c.claimMet()
		fmt.Fprintf(stdout, "claim %s: B wins %d of %d pairs; median change %+.1f%% against A's IQR %.4g: met=%v\n",
			*claim, wins, pairs, -100*c.change, c.a3-c.a1, met)
		if !met {
			status = 1
		}
	}
	return status
}
