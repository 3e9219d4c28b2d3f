package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/list"
	"repro/internal/reclaim"
	"repro/smr"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(1), NewSplitMix64(1)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewSplitMix64(2)
	same := true
	a = NewSplitMix64(1)
	for i := 0; i < 10; i++ {
		if a.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSplitMix64ZeroSeedRemapped(t *testing.T) {
	z := NewSplitMix64(0)
	if z.Next() == 0 && z.Next() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestSplitMix64IntnRange(t *testing.T) {
	prop := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		s := NewSplitMix64(seed)
		for i := 0; i < 50; i++ {
			if s.Intn(uint64(n)) >= uint64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitMix64Uniformish(t *testing.T) {
	s := NewSplitMix64(99)
	buckets := make([]int, 10)
	const draws = 50000
	for i := 0; i < draws; i++ {
		buckets[s.Intn(10)]++
	}
	for i, b := range buckets {
		if b < draws/10*8/10 || b > draws/10*12/10 {
			t.Fatalf("bucket %d has %d draws (expected ~%d)", i, b, draws/10)
		}
	}
}

func TestRunCellProducesOps(t *testing.T) {
	res := Env{}.RunCell(Of(smr.HE), Workload{Size: 100, UpdatePercent: 10, Threads: 2}, 30*time.Millisecond, 1)
	if res.Ops <= 0 {
		t.Fatal("no operations recorded")
	}
	if res.MopsPerSec <= 0 {
		t.Fatal("throughput not computed")
	}
	if res.Scheme != "HE" {
		t.Fatalf("scheme = %q", res.Scheme)
	}
	if res.Workload.Size != 100 {
		t.Fatalf("workload not carried: %+v", res.Workload)
	}
}

func TestRunCellAllSchemes(t *testing.T) {
	for _, s := range AllSchemes() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			res := Env{}.RunCell(s, Workload{Size: 64, UpdatePercent: 20, Threads: 2}, 20*time.Millisecond, 1)
			if res.Ops <= 0 {
				t.Fatalf("%s: no ops", s.Name)
			}
		})
	}
}

func TestPrefillSizes(t *testing.T) {
	l := list.New(smr.HE.Factory(), list.WithMaxThreads(4))
	Prefill(l, 500)
	if got := l.Len(); got != 500 {
		t.Fatalf("Len = %d, want 500", got)
	}
	l.Drain()
}

func TestMeasurePerNodeMatchesTable1(t *testing.T) {
	// Read-only: HP ~ 2 loads + 1 store per node, HE ~ 2 loads + ~0 stores,
	// EBR/URCU ~ 1 load.
	loads, stores, _, visits := Env{}.measurePerNode(Of(smr.HP), 100, 0)
	if visits == 0 || loads < 1.9 || loads > 2.2 || stores < 0.9 || stores > 1.1 {
		t.Fatalf("HP per-node = %.2f ld / %.2f st (%d visits)", loads, stores, visits)
	}
	// HE: 2 loads on the fast path; after every EndOp the three slots
	// republish once each on their next use (3 stores + 6 extra loads per
	// operation), amortized over ~size/2 visited nodes.
	loads, stores, _, _ = Env{}.measurePerNode(Of(smr.HE), 100, 0)
	if loads < 1.9 || loads > 2.3 || stores > 0.1 {
		t.Fatalf("HE per-node = %.2f ld / %.2f st", loads, stores)
	}
	loads, stores, _, _ = Env{}.measurePerNode(Of(smr.EBR), 100, 0)
	if loads != 1 || stores != 0 {
		t.Fatalf("EBR per-node = %.2f ld / %.2f st", loads, stores)
	}
	_, _, rmws, _ := Env{}.measurePerNode(Of(smr.RC), 100, 0)
	if rmws < 0.9 {
		t.Fatalf("RC per-node rmws = %.2f, want ~1+", rmws)
	}
}

func TestMeasureStalledBoundShapes(t *testing.T) {
	// The paper's core qualitative claim (Appendix A): under a stalled
	// reader EBR reclaims nothing, while HE keeps reclaiming new objects.
	const size, churn = 50, 3000
	_, finalHE, freedHE, verdictHE := Env{}.measureStalledBound(Of(smr.HE), size, churn)
	if freedHE == 0 {
		t.Fatal("HE must keep reclaiming under a stalled reader")
	}
	if finalHE > size+4 {
		t.Fatalf("HE pending %d exceeds live-set bound %d", finalHE, size)
	}
	if !strings.Contains(verdictHE, "bounded") {
		t.Fatalf("HE verdict = %q", verdictHE)
	}

	_, finalEBR, freedEBR, _ := Env{}.measureStalledBound(Of(smr.EBR), size, churn)
	if freedEBR != 0 {
		t.Fatalf("EBR freed %d under a stalled reader, expected 0", freedEBR)
	}
	if finalEBR < int64(churn)/2 {
		t.Fatalf("EBR pending %d should grow with churn %d", finalEBR, churn)
	}

	_, finalHP, freedHP, _ := Env{}.measureStalledBound(Of(smr.HP), size, churn)
	if freedHP == 0 {
		t.Fatal("HP must keep reclaiming under a stalled reader")
	}
	if finalHP > size+4 {
		t.Fatalf("HP pending %d exceeds bound", finalHP)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("a", "bb", "ccc")
	tbl.Row(1, 2.5, "x")
	tbl.Row("long-cell", 0.125, true)
	var buf bytes.Buffer
	tbl.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "long-cell") || !strings.Contains(out, "2.500") {
		t.Fatalf("table output malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}

	buf.Reset()
	tbl.CSV(&buf)
	if !strings.HasPrefix(buf.String(), "a,bb,ccc\n") {
		t.Fatalf("csv malformed:\n%s", buf.String())
	}
}

func TestOptionsDefaulted(t *testing.T) {
	o := Options{}.defaulted()
	if o.Dur <= 0 || len(o.Threads) == 0 || len(o.Sizes) == 0 || len(o.Updates) == 0 || o.Seed == 0 {
		t.Fatalf("defaults missing: %+v", o)
	}
	o2 := Options{Dur: time.Second, Threads: []int{3}}.defaulted()
	if o2.Dur != time.Second || len(o2.Threads) != 1 {
		t.Fatalf("explicit values clobbered: %+v", o2)
	}
}

// Smoke-run every experiment driver at miniature scale; checks they
// complete and emit the expected sections.
func TestExperimentDriversSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers take seconds")
	}
	mini := Options{
		Dur:     10 * time.Millisecond,
		Threads: []int{1, 2},
		Sizes:   []uint64{32},
		Updates: []int{0, 100},
		Seed:    1,
	}
	var buf bytes.Buffer

	Figure4(&buf, mini)
	if !strings.Contains(buf.String(), "Figure 4 panel") || !strings.Contains(buf.String(), "URCU") {
		t.Fatalf("Figure4 output malformed:\n%s", buf.String())
	}

	buf.Reset()
	Table1(&buf, mini)
	out := buf.String()
	for _, want := range []string{"Table 1a", "Table 1b", "Table 1c", "Table 1d", "Hazard Eras", "UNBOUNDED"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	EquationOneBound(&buf, mini)
	if !strings.Contains(buf.String(), "Equation 1") || !strings.Contains(buf.String(), "true") {
		t.Fatalf("EquationOneBound output malformed:\n%s", buf.String())
	}

	buf.Reset()
	KAdvance(&buf, mini)
	if !strings.Contains(buf.String(), "k-advance") {
		t.Fatalf("KAdvance output malformed:\n%s", buf.String())
	}

	buf.Reset()
	Stalled(&buf, mini)
	if !strings.Contains(buf.String(), "Appendix A") {
		t.Fatalf("Stalled output malformed:\n%s", buf.String())
	}

	buf.Reset()
	RFactor(&buf, mini)
	if !strings.Contains(buf.String(), "R factor") || !strings.Contains(buf.String(), "512") {
		t.Fatalf("RFactor output malformed:\n%s", buf.String())
	}

	buf.Reset()
	Oversubscription(&buf, mini)
	if !strings.Contains(buf.String(), "Oversubscription") || !strings.Contains(buf.String(), "EBR") {
		t.Fatalf("Oversubscription output malformed:\n%s", buf.String())
	}
}

// TestRosterMediansFixtures runs the slice rotation behind SchemesCompare
// briefly over HE and HP for every roster fixture: each scheme's median is
// a finite positive ns/op, and each fixture's teardown leaves the one
// domain it built with nothing pending.
func TestRosterMediansFixtures(t *testing.T) {
	for _, rw := range rosterWorkloads() {
		var doms []reclaim.Domain
		var schemes []Scheme
		for _, s := range schemesOf(smr.HE, smr.HP) {
			mk := s.Make
			schemes = append(schemes, Scheme{s.Name, func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
				d := mk(a, c)
				doms = append(doms, d)
				return d
			}})
		}
		meds := rosterMedians(Env{}, 3, 100, schemes, rw.fixture)
		if len(meds) != len(schemes) || len(doms) != len(schemes) {
			t.Fatalf("%s: %d medians, %d domains for %d schemes", rw.name, len(meds), len(doms), len(schemes))
		}
		for i, s := range schemes {
			if m := meds[i]; !(m > 0) || math.IsInf(m, 0) {
				t.Errorf("%s/%s: median %v ns/op, want finite and positive", rw.name, s.Name, m)
			}
			if p := doms[i].Stats().Pending; p != 0 {
				t.Errorf("%s/%s: %d pending after teardown", rw.name, s.Name, p)
			}
		}
	}
}

func TestMinMaxDriverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("BST prefill of 10000 keys takes a moment")
	}
	mini := Options{Dur: 10 * time.Millisecond, Threads: []int{2}, Seed: 1}
	var buf bytes.Buffer
	MinMax(&buf, mini)
	if !strings.Contains(buf.String(), "HE-minmax") {
		t.Fatalf("MinMax output malformed:\n%s", buf.String())
	}
}

func TestIBRInAllSchemes(t *testing.T) {
	found := false
	for _, s := range AllSchemes() {
		if s.Name == "IBR" {
			found = true
		}
	}
	if !found {
		t.Fatal("IBR missing from the scheme roster")
	}
}

func TestMeasurePerNodeIBR(t *testing.T) {
	// IBR's per-node reader cost matches HE's fast path (2 loads) with even
	// fewer stores: one interval re-publication per era change per
	// OPERATION, regardless of how many protection indices the traversal
	// uses.
	loads, stores, rmws, visits := Env{}.measurePerNode(Of(smr.IBR), 100, 0)
	if visits == 0 || loads < 1.9 || loads > 2.2 {
		t.Fatalf("IBR per-node loads = %.2f (%d visits)", loads, visits)
	}
	if stores > 0.05 || rmws != 0 {
		t.Fatalf("IBR per-node stores/rmws = %.3f/%.3f", stores, rmws)
	}
}

// TestKAdvanceRowsAdvanceEveryKthRetire checks the scheme KAdvance builds
// its rows from: EveryRetire(HEk(k)) advances the era clock on every k-th
// retire, so k = 1 is Algorithm 3's advance on every retire and the
// cadence falls with k. Eight sessions of three slots make the default
// trigger scan once per 24 retires; HEk(1) alone would advance only there,
// less often than k = 4.
func TestKAdvanceRowsAdvanceEveryKthRetire(t *testing.T) {
	const retires = 96
	for _, k := range []int{1, 4, 16} {
		d := smr.NewWith[uint64](EveryRetire(HEk(k)).Make, smr.Config{MaxThreads: 8, Slots: 3})
		guards := make([]*smr.Guard, 8)
		for i := range guards {
			guards[i] = d.Register()
		}
		g := guards[0]
		for i := 0; i < retires; i++ {
			p, _ := d.Alloc(g)
			d.Publish(p.Ref())
			g.Retire(p.Ref())
		}
		if got, want := d.Stats().EraClock-1, uint64(retires/k); got != want {
			t.Errorf("k=%d: %d era advances in %d retires, want %d", k, got, retires, want)
		}
		for _, g := range guards {
			g.Unregister()
		}
		d.Drain()
	}
}
