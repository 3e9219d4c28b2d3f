package obs

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMonitorHysteresis drives every invariant the monitor watches across
// its threshold and back through a fully stubbed domain, stepping the
// monitor deterministically. Each excursion must produce exactly one raise
// and one clear — the hysteresis gate's whole contract: no flapping, no
// double-raising, no silent re-arming.
func TestMonitorHysteresis(t *testing.T) {
	d := NewDomain("stub", Config{Sessions: 4, StallEras: 10, Trace: TraceConfig{Enabled: true, SampleAll: true}})
	var (
		pending int64  // pending-budget input
		lagged  bool   // era-stall input: one session parked at era 0
		depth   int64  // handoff-growth input
		clock   uint64 = 100
	)
	d.SetStatsSource(func() Stats { return Stats{PendingBytes: pending} })
	d.SetBudget(1000)
	d.SetEraSource(func() uint64 { return clock }, func(yield func(int, uint64)) {
		yield(0, clock)
		if lagged {
			yield(1, 0)
		}
	})
	d.AddSchemeSource(func() []SchemeMetric {
		return []SchemeMetric{{Name: "smr_hyaline_handoff_depth_max", Kind: "gauge", Value: depth}}
	})

	m := NewMonitor(MonitorConfig{RaiseTicks: 2, ClearTicks: 2, AgeP99CeilNs: 1000},
		func() []*Domain { return []*Domain{d} })
	var fired []Alert
	m.SetOnAlert(func(a Alert) { fired = append(fired, a) })

	// Healthy warm-up: seeds the handoff-growth tracker, fires nothing.
	m.Step()
	m.Step()
	if len(fired) != 0 {
		t.Fatalf("healthy warm-up fired %d alerts: %+v", len(fired), fired)
	}

	// Excursion: every invariant breaches. The reclaim-age histogram gets
	// one observation far above the ceiling (a single sample IS the p99);
	// the handoff depth must grow on every tick to count as monotone.
	pending, lagged = 2000, true
	d.Tracer().age.Record(0, 50_000)
	for i := 0; i < 2; i++ {
		depth++
		m.Step()
	}
	wantRaised := []string{"pending-budget", "era-stall", "reclaim-age-p99", "handoff-growth"}
	counts := map[string]int{}
	for _, a := range fired {
		if a.State != "raise" {
			t.Fatalf("unexpected %s alert during the breach phase: %+v", a.State, a)
		}
		counts[a.Invariant]++
	}
	for _, inv := range wantRaised {
		if counts[inv] != 1 {
			t.Errorf("invariant %s raised %d times, want exactly 1 (all: %v)", inv, counts[inv], counts)
		}
	}
	if len(fired) != len(wantRaised) {
		t.Errorf("breach phase fired %d alerts, want %d: %+v", len(fired), len(wantRaised), fired)
	}

	// Recovery: drag the cumulative age p99 back under the ceiling with a
	// mass of tiny observations, stop the depth growth, zero the gauges.
	fired = nil
	pending, lagged = 0, false
	for i := 0; i < 400; i++ {
		d.Tracer().age.Record(0, 10)
	}
	for i := 0; i < 2; i++ {
		m.Step()
	}
	counts = map[string]int{}
	for _, a := range fired {
		if a.State != "clear" {
			t.Fatalf("unexpected %s alert during the recovery phase: %+v", a.State, a)
		}
		counts[a.Invariant]++
	}
	for _, inv := range wantRaised {
		if counts[inv] != 1 {
			t.Errorf("invariant %s cleared %d times, want exactly 1 (all: %v)", inv, counts[inv], counts)
		}
	}

	// Steady state after the excursion: nothing more fires, and the status
	// table shows one raise and one clear per invariant, none active.
	fired = nil
	m.Step()
	m.Step()
	if len(fired) != 0 {
		t.Fatalf("steady state fired %d alerts: %+v", len(fired), fired)
	}
	for _, st := range m.Status() {
		if st.Scheme != "stub" {
			t.Errorf("status scheme = %q, want stub", st.Scheme)
		}
		if st.Active || st.Raises != 1 || st.Clears != 1 {
			t.Errorf("status %s: active=%v raises=%d clears=%d, want inactive 1/1",
				st.Invariant, st.Active, st.Raises, st.Clears)
		}
	}
	if got := len(m.Log()); got != 8 {
		t.Errorf("alert log holds %d transitions, want 8", got)
	}
}

// TestHubCloseShutsDownCleanly is the shutdown-hygiene regression test:
// Close must stop the monitor ticker, flush and join the sampler, and join
// the HTTP serve goroutine — bracketed by NumGoroutine so a leaked watcher
// fails the test. Close must also be idempotent.
func TestHubCloseShutsDownCleanly(t *testing.T) {
	before := runtime.NumGoroutine()

	hub := NewHub()
	d := NewDomain("closer", Config{Sessions: 2})
	hub.Attach(d)

	path := filepath.Join(t.TempDir(), "close.jsonl")
	smp, err := StartFileSampler(path, time.Millisecond, hub.Domains)
	if err != nil {
		t.Fatal(err)
	}
	hub.SetSampler(smp)

	mon := NewMonitor(MonitorConfig{Interval: time.Millisecond}, hub.Domains)
	hub.SetMonitor(mon)
	mon.Start()

	if _, _, err := hub.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// Let the ticker goroutines run until the sampler has written its first
	// line (each tick flushes), bounded so a stuck ticker fails below
	// rather than hanging the test.
	for wait := time.Now().Add(2 * time.Second); time.Now().Before(wait); time.Sleep(time.Millisecond) {
		if b, _ := os.ReadFile(path); strings.Contains(string(b), `"scheme":"closer"`) {
			break
		}
	}

	hub.Close()
	hub.Close() // idempotent

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines: %d before, %d after Close\n%s", before, got, buf[:runtime.Stack(buf, true)])
	}

	// The sampler was flushed on the way down: the file already holds at
	// least one snapshot line for the attached domain.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"scheme":"closer"`) {
		t.Fatalf("sampler file not flushed on Close: %q", string(b))
	}
}

// TestDroppedEventsSurface proves event loss is loud: overwriting a small
// flight-recorder ring must show up in the snapshot's dropped counter and
// as the smr_obs_dropped_total series.
func TestDroppedEventsSurface(t *testing.T) {
	d := NewDomain("droppy", Config{Sessions: 1, RingEvents: 8})
	for i := 0; i < 100; i++ {
		d.Ring(0).Record(EvFree, 0, uint64(i))
	}
	s := d.Snapshot()
	if s.Dropped != 92 {
		t.Fatalf("snapshot dropped = %d, want 92 (100 records into an 8-slot ring)", s.Dropped)
	}

	d.NoteDropped(3)
	if got := d.Snapshot().Dropped; got != 95 {
		t.Fatalf("dropped after NoteDropped(3) = %d, want 95", got)
	}

	var sb strings.Builder
	WriteMetrics(&sb, []DomainSnapshot{d.Snapshot()})
	if !strings.Contains(sb.String(), `smr_obs_dropped_total{scheme="droppy"} 95`) {
		t.Fatalf("smr_obs_dropped_total series missing or wrong:\n%s", sb.String())
	}
}
