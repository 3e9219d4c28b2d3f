package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchFile is BENCHMARK.json at the repository root.
const benchFile = "../../BENCHMARK.json"

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readBenchMetrics(t *testing.T) (endToEnd, perLayer []specMetric) {
	t.Helper()
	b, err := os.ReadFile(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

func smokeConfig(trace bool) config {
	return config{seed: 1, workers: min(2, runtime.NumCPU()), window: 20 * time.Millisecond, rounds: 2, trace: trace}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each emits every metric BENCHMARK.json names, with its unit, and no
// failed operation.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := readBenchMetrics(t)
	for _, traced := range []bool{false, true} {
		want := endToEnd
		if traced {
			want = perLayer
		}
		r, layers, sources := execute(smokeConfig(traced), workloads, io.Discard)
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d", traced, r.Correct, r.Failed, r.Attempted)
		}
		for _, w := range workloads {
			wr := r.Workloads[w.name]
			got := map[string]string{}
			for _, m := range wr.Metrics {
				got[m.Name] = m.Unit
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok || unit != m.Unit {
					t.Errorf("traced=%v %s: metric %s has unit %q (present %v), want %q", traced, w.name, m.Name, unit, ok, m.Unit)
				}
			}
			if len(got) != len(want) {
				t.Errorf("traced=%v %s: %d metrics emitted, BENCHMARK.json names %d", traced, w.name, len(got), len(want))
			}
		}
		if traced {
			dir := t.TempDir()
			if err := writeTrace(dir, sources, layers); err != nil {
				t.Fatal(err)
			}
			checkSpans(t, filepath.Join(dir, "spans.jsonl"))
		}
	}
}

// checkSpans verifies that every remove and insert span is the child of
// the update span of its own operation.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]map[int]string{} // trace -> span -> name
	var children []spanLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l spanLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		if names[l.Trace] == nil {
			names[l.Trace] = map[int]string{}
		}
		names[l.Trace][l.Span] = l.Name
		if l.Parent != 0 {
			children = append(children, l)
		}
	}
	if len(children) == 0 {
		t.Fatal("spans.jsonl holds no child spans")
	}
	for _, c := range children {
		parent := names[c.Trace][c.Parent]
		if !strings.HasSuffix(parent, ".update") || !(strings.HasSuffix(c.Name, ".remove") || strings.HasSuffix(c.Name, ".insert")) {
			t.Fatalf("span %s#%d %q has parent %q", c.Trace, c.Span, c.Name, parent)
		}
	}
}

func TestStreamsDeterministic(t *testing.T) {
	draw := func(seed uint64, i int) []uint64 {
		s := stream(seed, i)
		out := make([]uint64, 64)
		for j := range out {
			out[j] = s.next()
		}
		return out
	}
	if !slices.Equal(draw(7, 1), draw(7, 1)) {
		t.Error("same seed and stream gave different keys")
	}
	if slices.Equal(draw(7, 1), draw(8, 1)) || slices.Equal(draw(7, 1), draw(7, 2)) {
		t.Error("different seeds or streams gave the same keys")
	}
	p := permutation(1000, stream(7, 0))
	if !slices.Equal(p, permutation(1000, stream(7, 0))) {
		t.Error("prefill order is not deterministic")
	}
	sorted := slices.Sorted(slices.Values(p))
	for i, k := range sorted {
		if k != uint64(i) {
			t.Fatalf("prefill order is not a permutation of 0..999: position %d holds %d", i, k)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// writeRuns writes five result files into dir, each carrying every
// end-to-end metric of the traverse workload at 10 times a small jitter
// times scale(name).
func writeRuns(t *testing.T, dir string, endToEnd []specMetric, scale func(name string) float64) {
	t.Helper()
	jitter := []float64{1.00, 1.01, 0.99, 1.005, 0.995}
	for i, j := range jitter {
		wr := &workloadResult{}
		for _, m := range endToEnd {
			wr.Metrics = append(wr.Metrics, metric{Name: m.Name, Unit: m.Unit, Value: 10 * j * scale(m.Name)})
		}
		r := result{Correct: true, Workloads: map[string]*workloadResult{"traverse": wr}}
		if err := writeJSON(filepath.Join(dir, fmt.Sprintf("run%d.json", i)), r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompare(t *testing.T) {
	endToEnd, _ := readBenchMetrics(t)
	root := t.TempDir()
	base, same, slow := filepath.Join(root, "base"), filepath.Join(root, "same"), filepath.Join(root, "slow")
	for _, d := range []string{base, same, slow} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	one := func(string) float64 { return 1 }
	writeRuns(t, base, endToEnd, one)
	writeRuns(t, same, endToEnd, one)
	// A 20% slowdown: throughput falls by a fifth, times grow by a fifth.
	writeRuns(t, slow, endToEnd, func(name string) float64 {
		if strings.HasSuffix(name, ".mops") {
			return 0.8
		}
		return 1.2
	})
	glob := func(d string) []string {
		m, err := filepath.Glob(filepath.Join(d, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(a, b string) (int, string) {
		var out strings.Builder
		code := compareMain(append([]string{"-bench", benchFile}, append(glob(a), glob(b)...)...), &out, io.Discard)
		return code, out.String()
	}

	code, out := run(base, same)
	if code != 0 || strings.Count(out, " "+unchanged+"\n") != len(endToEnd) {
		t.Errorf("identical inputs: exit %d, want every metric unchanged:\n%s", code, out)
	}
	// Every metric whose bound is below the slowdown must read worse.
	tight := 0
	for _, m := range endToEnd {
		if m.Bound < 0.2 {
			tight++
		}
	}
	code, out = run(base, slow)
	if code != 1 || !strings.Contains(out, "traverse/he.mops") || strings.Count(out, " "+worse+"\n") != tight {
		t.Errorf("20%% slowdown: exit %d, want the %d metrics bounded below 20%% worse:\n%s", code, tight, out)
	}
}
