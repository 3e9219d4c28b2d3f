package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// metric is one reported number.
type metric struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit"`
	Value float64  `json:"value"`
	N     int      `json:"n"`             // samples the value summarizes
	Raw   *float64 `json:"raw,omitempty"` // the value before calibration scaling
}

// workloadResult is everything one workload run reports.
type workloadResult struct {
	Metrics    []metric `json:"metrics"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	Problems   []string `json:"problems,omitempty"`
	CalibMhops float64  `json:"calib_mhops"` // median calibration rate over the rounds
	Rounds     int      `json:"rounds"`
	WindowMs   float64  `json:"window_ms"`
	Traced     bool     `json:"traced"`
}

// result is the file -out writes and compare reads.
type result struct {
	Provenance provenance                 `json:"provenance"`
	Correct    bool                       `json:"correct"`
	Attempted  int64                      `json:"attempted"`
	Failed     int64                      `json:"failed"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type provenance struct {
	Seed       uint64 `json:"seed"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
}

func newProvenance(seed uint64) provenance {
	p := provenance{
		Seed: seed, Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", GoVersion: runtime.Version(), Revision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Revision = s.Value
			}
		}
	}
	return p
}

// cpuModel reads the processor name for a result file's provenance. Only
// the -out path calls it, so a plain benchmark run reads nothing outside
// its checkout.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printTable writes a workload's metrics, one per line, with unit, sample
// count and the uncalibrated value where there is one.
func printTable(w io.Writer, name string, wr *workloadResult) {
	fmt.Fprintf(w, "== %s: %d rounds x %.0f ms, calib %.1f Mhops/s (ref %.1f), traced=%v, %d ops, %d failed\n",
		name, wr.Rounds, wr.WindowMs, wr.CalibMhops, calibRef, wr.Traced, wr.Attempted, wr.Failed)
	for _, m := range wr.Metrics {
		raw := ""
		if m.Raw != nil {
			raw = fmt.Sprintf("  raw %.4g", *m.Raw)
		}
		fmt.Fprintf(w, "  %-34s %12.4f %-11s n=%-6d%s\n", m.Name, m.Value, m.Unit, m.N, raw)
	}
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

// lastLine is the one-line JSON summary printed last on standard output.
type lastLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary builds the last line. With one workload, metrics keep their bare
// names; with several, each is prefixed "workload/".
func summary(r *result) lastLine {
	l := lastLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetric{}}
	for name, wr := range r.Workloads {
		for _, m := range wr.Metrics {
			key := m.Name
			if len(r.Workloads) > 1 {
				key = name + "/" + m.Name
			}
			l.Metrics[key] = lineMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return l
}

// ---- order statistics ----------------------------------------------------

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" default), so spreads read
// the same here as in any script that checks them.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// sorting xs in place.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return float64(xs[min(max(i, 0), len(xs)-1)])
}
