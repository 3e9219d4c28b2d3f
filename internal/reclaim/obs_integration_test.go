package reclaim_test

import (
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ebr"
	"repro/internal/hp"
	"repro/internal/hyaline"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/reclaim"
	"repro/internal/wfe"
)

// TestStatsPoolCounters checks that Stats distinguishes pooled re-acquires
// from fresh registrations.
func TestStatsPoolCounters(t *testing.T) {
	arena := mem.NewArena[bnode]()
	d := core.New(arena, reclaim.Config{MaxThreads: 4, Slots: 2})

	h := d.Acquire() // empty pool: falls through to Register
	st := d.Stats()
	if st.PoolHits != 0 || st.PoolMisses != 1 {
		t.Fatalf("after first acquire: hits/misses = %d/%d, want 0/1", st.PoolHits, st.PoolMisses)
	}
	d.Release(h)
	h = d.Acquire() // served from the pool
	st = d.Stats()
	if st.PoolHits != 1 || st.PoolMisses != 1 {
		t.Fatalf("after re-acquire: hits/misses = %d/%d, want 1/1", st.PoolHits, st.PoolMisses)
	}
	h2 := d.Acquire() // pool empty again (h holds the only pooled slot)
	st = d.Stats()
	if st.PoolHits != 1 || st.PoolMisses != 2 {
		t.Fatalf("after second miss: hits/misses = %d/%d, want 1/2", st.PoolHits, st.PoolMisses)
	}
	d.Release(h)
	d.Release(h2)

	// Register/Unregister never touch the pool counters.
	hr := d.Register()
	d.Unregister(hr)
	st = d.Stats()
	if st.PoolHits != 1 || st.PoolMisses != 2 {
		t.Fatalf("register moved pool counters: hits/misses = %d/%d", st.PoolHits, st.PoolMisses)
	}
}

// TestStatsPendingNeverNegative is the regression test for the transient
// negative Pending readings: the retired/freed stripe folds are not atomic
// with respect to each other, so a fold racing a retire+free pair could
// observe more frees than retires. Stats must clamp — concurrent pollers
// must never see Pending < 0. Run under -race in CI.
func TestStatsPendingNeverNegative(t *testing.T) {
	arena := mem.NewArena[bnode]()
	d := core.New(arena, reclaim.Config{MaxThreads: 8, Slots: 2})

	const workers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := d.Register()
			defer d.Unregister(h)
			for !stop.Load() {
				ref, _ := arena.AllocAt(h.ID())
				d.OnAlloc(ref)
				d.Retire(h, ref) // unprotected: freed by the scan each retire triggers
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		if p := d.Stats().Pending; p < 0 {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("observed negative pending: %d", p)
		}
	}
	stop.Store(true)
	wg.Wait()
	d.Drain()
	if p := d.Stats().Pending; p != 0 {
		t.Fatalf("pending after drain = %d, want 0", p)
	}
}

// TestObsSchemeIntegration wires a real HE domain to an obs domain and
// checks the full telemetry surface end to end: stats mirror, era lag,
// flight-recorder events from scan/free/session paths, pending bytes via
// the arena slot size, and the scan histogram count.
func TestObsSchemeIntegration(t *testing.T) {
	arena := mem.NewArena[bnode]()
	d := core.New(arena, reclaim.Config{MaxThreads: 4, Slots: 2})
	// Ring sized to hold the whole run (~500 events) so the early
	// register/acquire records survive for the kind assertions below.
	od := obs.NewDomain("HE", obs.Config{Sessions: 4, RingEvents: 1024})
	d.EnableObs(od)

	h := d.Acquire()
	for i := 0; i < 100; i++ {
		ref, _ := arena.AllocAt(h.ID())
		d.OnAlloc(ref)
		h.Retire(ref) // the handle path, as the structures use
	}
	d.Release(h)

	s := od.Snapshot()
	if s.Retired != 100 {
		t.Fatalf("obs retired = %d, want 100", s.Retired)
	}
	if s.Freed+s.Pending != 100 {
		t.Fatalf("freed+pending = %d+%d, want 100", s.Freed, s.Pending)
	}
	if want := s.Pending * int64(arena.SlotBytes()); s.PendingBytes != want {
		t.Fatalf("pending bytes = %d, want %d", s.PendingBytes, want)
	}
	if !s.HasEras {
		t.Fatal("HE must export era gauges")
	}
	if s.EraClock == 0 || s.Scans == 0 {
		t.Fatalf("era clock / scans = %d/%d, want nonzero", s.EraClock, s.Scans)
	}
	if s.Scan.Count == 0 {
		t.Fatal("scan latency count = 0, want nonzero")
	}

	kinds := map[obs.Kind]int{}
	for _, e := range od.Events(0) {
		kinds[e.Kind]++
	}
	for _, k := range []obs.Kind{obs.EvRegister, obs.EvRelease, obs.EvScanStart, obs.EvScanEnd, obs.EvFree} {
		if kinds[k] == 0 {
			t.Errorf("no %v event recorded; kinds=%v", k, kinds)
		}
	}
	d.Drain()
}

// TestObsChurnRace drives an instrumented HE domain from several goroutines
// while a sampler and an event reader run concurrently — the -race
// regression test for the recorder/histogram/snapshot paths embedded in the
// hot reclamation code (the sibling of the pure-obs churn test).
func TestObsChurnRace(t *testing.T) {
	arena := mem.NewArena[bnode]()
	d := core.New(arena, reclaim.Config{MaxThreads: 8, Slots: 2})
	od := obs.NewDomain("HE", obs.Config{Sessions: 8, RingEvents: 64})
	d.EnableObs(od)

	smp := obs.StartSampler(io.Discard, time.Millisecond, func() []*obs.Domain { return []*obs.Domain{od} })
	defer smp.Stop()

	const workers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for { // at least one batch even if the poller finishes first
				h := d.Acquire()
				for i := 0; i < 64; i++ {
					ref, _ := arena.AllocAt(h.ID())
					d.OnAlloc(ref)
					h.Retire(ref)
				}
				d.Release(h)
				if stop.Load() {
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		od.Snapshot()
		od.Events(0)
		smp.Sample([]*obs.Domain{od})
	}
	stop.Store(true)
	wg.Wait()
	d.Drain()

	s := od.Snapshot()
	if s.Retired == 0 || s.Retired != s.Freed {
		t.Fatalf("after drain: retired=%d freed=%d", s.Retired, s.Freed)
	}
}

// TestObsScanEndCountsOwnFrees is the regression test for EvScanEnd
// over-counting after registry growth: sessions past MaxThreads share the
// freed stripes, so measuring a scan's frees as a stripe delta charged
// another session's frees to it. The count now comes from the session's
// own probe.
func TestObsScanEndCountsOwnFrees(t *testing.T) {
	arena := mem.NewArena[bnode]()
	d := core.New(arena, reclaim.Config{MaxThreads: 1, Slots: 2})
	od := obs.NewDomain("HE", obs.Config{})
	d.EnableObs(od)
	a := d.Register()
	b := d.Register() // grows the registry; shares a's freed stripe

	a.NoteScan()
	for i := 0; i < 5; i++ {
		ref, _ := arena.AllocAt(b.ID())
		d.OnAlloc(ref)
		b.FreeRetired(ref)
	}
	a.NoteScanEnd()

	var ends []uint64
	for _, e := range od.Events(0) {
		if e.Kind == obs.EvScanEnd && e.Session == a.ID() {
			ends = append(ends, e.Value)
		}
	}
	if len(ends) != 1 || ends[0] != 0 {
		t.Fatalf("session %d scan_end values = %v, want [0]", a.ID(), ends)
	}
	d.Unregister(a)
	d.Unregister(b)
}

// TestObsProbeWiring drives one Protect/Retire/scan sequence on an HE
// domain under every combination of attached watchers. Counters and obs
// share one per-session probe, so each attached family must see exactly
// its own signals and an unattached one nothing at all.
func TestObsProbeWiring(t *testing.T) {
	const protects, retires = 10, 8
	for _, tc := range []struct {
		name              string
		ins, watch, trace bool
	}{
		{"none", false, false, false},
		{"instrument", true, false, false},
		{"obs", false, true, false},
		{"obs+trace", false, true, true},
		{"instrument+obs+trace", true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ins := reclaim.NewInstrument(4)
			cfg := reclaim.Config{MaxThreads: 4, Slots: 2}
			if tc.ins {
				cfg.Instrument = ins
			}
			arena := mem.NewArena[bnode]()
			d := core.New(arena, cfg)
			od := obs.NewDomain("HE", obs.Config{
				Sessions: 4, RingEvents: 1024,
				Trace: obs.TraceConfig{Enabled: tc.trace, SampleAll: true},
			})
			if tc.watch {
				d.EnableObs(od)
			}

			h := d.Acquire()
			refs := make([]mem.Ref, retires)
			for i := range refs {
				refs[i], _ = arena.AllocAt(h.ID())
				d.OnAlloc(refs[i])
			}
			var cell atomic.Uint64
			cell.Store(uint64(refs[0]))
			h.BeginOp()
			for i := 0; i < protects; i++ {
				if got := h.Protect(0, &cell); got != refs[0] {
					t.Fatalf("Protect = %v, want %v", got, refs[0])
				}
			}
			h.EndOp()
			for _, ref := range refs {
				h.Retire(ref)
			}
			d.Release(h)
			d.Drain()

			// HE's first Protect publishes the era (two extra loads and one
			// store); every later one is the two-load fast path.
			want := reclaim.Snapshot{Visits: protects, Loads: 2*protects + 2, Stores: 1}
			if !tc.ins {
				want = reclaim.Snapshot{}
			}
			if got := ins.Snapshot(); got != want {
				t.Errorf("instrument = %+v, want %+v", got, want)
			}

			kinds := map[obs.Kind]int{}
			for _, e := range od.Events(0) {
				kinds[e.Kind]++
			}
			s := od.Snapshot()
			if !tc.watch {
				if len(kinds) != 0 || s.Scan.Count != 0 {
					t.Errorf("unattached obs recorded events %v, scan latency count %d", kinds, s.Scan.Count)
				}
				return
			}
			for _, k := range []obs.Kind{obs.EvRegister, obs.EvRelease, obs.EvScanStart, obs.EvScanEnd, obs.EvFree} {
				if kinds[k] == 0 {
					t.Errorf("no %v event recorded; kinds=%v", k, kinds)
				}
			}
			if s.Scan.Count == 0 {
				t.Error("scan latency count = 0, want >0")
			}

			tr := od.Tracer()
			if !tc.trace {
				if tr != nil {
					t.Fatal("tracer built without Trace.Enabled")
				}
				return
			}
			spans := tr.DrainDone()
			if len(spans) != retires {
				t.Fatalf("completed spans = %d, want %d", len(spans), retires)
			}
			for _, sp := range spans {
				seen := map[obs.SpanKind]int{}
				for _, e := range sp.Events {
					seen[e.Kind]++
				}
				wantProtects := 0
				if sp.Ref == uint64(refs[0]) {
					wantProtects = protects
				}
				if seen[obs.SpanProtect] != wantProtects || seen[obs.SpanRetire] != 1 || seen[obs.SpanFree] != 1 {
					t.Errorf("ref %#x span events %v, want %d protect, 1 retire, 1 free", sp.Ref, seen, wantProtects)
				}
			}
		})
	}
}

// TestObsExpositionSeries pins every series the obs layer exports, by name:
// a hub over HE (traced), HP, EBR, hyaline, hyaline-1r and WFE plus a
// monitor, after a little churn under a parked reader, must render exactly
// these TYPE headers, each with at least one sample line. A new series
// fails here until a consumer is named for it; a series that stopped
// producing samples fails as well.
func TestObsExpositionSeries(t *testing.T) {
	want := []string{
		"smr_obs_dropped_total", "smr_retired_total", "smr_freed_total", "smr_scans_total",
		"smr_pool_hits_total", "smr_pool_misses_total",
		"smr_pending", "smr_pending_bytes", "smr_peak_pending", "smr_era_clock",
		"smr_era_lag_max", "smr_stalled_sessions", "smr_era_lag",
		"smr_arena_class_live", "smr_arena_class_live_bytes", "smr_arena_class_capacity",
		"smr_arena_class_slabs", "smr_arena_class_allocs_total", "smr_arena_class_frees_total",
		"smr_arena_class_spills_total", "smr_arena_class_refills_total",
		"smr_budget_bytes", "smr_trace_live_spans",
		"smr_hyaline_handoff_depth", "smr_hyaline_handoff_depth_max", "smr_hyaline_batches_inflight",
		"smr_wfe_announce_total", "smr_wfe_help_published_total", "smr_wfe_adopt_total",
		"smr_wfe_adopt_fail_total", "smr_wfe_waiters",
		"smr_scan_latency_ns", "smr_reclaim_age_ns",
		"smr_alerts_total", "smr_alert_active",
	}
	hub := obs.NewHub()
	for _, tc := range []struct {
		name  string
		mk    func(reclaim.Allocator, reclaim.Config) reclaim.Domain
		trace bool
	}{
		{"HE", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain { return core.New(a, c) }, true},
		{"HP", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain { return hp.New(a, c) }, false},
		{"EBR", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain { return ebr.New(a, c) }, false},
		{"hyaline", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
			return hyaline.New(a, c, hyaline.WithRobust(false))
		}, false},
		{"hyaline-1r", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain { return hyaline.New(a, c) }, false},
		{"WFE", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain { return wfe.New(a, c) }, false},
	} {
		arena := mem.NewArena[bnode]()
		d := tc.mk(arena, reclaim.Config{MaxThreads: 4, Slots: 2})
		reclaim.Observe(d, hub, tc.name, obs.Config{Sessions: 4, Trace: obs.TraceConfig{Enabled: tc.trace, SampleAll: true}})
		// The reader stays inside its operation through the render, so the
		// per-session and per-handoff series have something to report.
		r, w := d.Register(), d.Register()
		var cell atomic.Uint64
		ref, _ := arena.AllocAt(w.ID())
		d.OnAlloc(ref)
		cell.Store(uint64(ref))
		r.BeginOp()
		r.Protect(0, &cell)
		for i := 0; i < 64; i++ {
			ref, _ := arena.AllocAt(w.ID())
			d.OnAlloc(ref)
			w.Retire(mem.Ref(cell.Swap(uint64(ref))))
		}
		defer func() {
			r.EndOp()
			d.Unregister(r)
			d.Unregister(w)
			d.Drain()
		}()
	}
	m := obs.NewMonitor(obs.MonitorConfig{}, hub.Domains)
	m.Step()
	var b strings.Builder
	obs.WriteMetrics(&b, hub.Snapshots())
	obs.WriteAlertMetrics(&b, m.Status())

	types := map[string]string{}
	samples := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); types[base] == "histogram" {
				name = base
				break
			}
		}
		samples[name]++
	}
	got := make([]string, 0, len(types))
	for name := range types {
		got = append(got, name)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("exported series differ\n got: %v\nwant: %v", got, want)
	}
	for _, name := range want {
		if samples[name] == 0 {
			t.Errorf("series %s has no sample line", name)
		}
	}
	for name := range samples {
		if _, ok := types[name]; !ok {
			t.Errorf("sample %s has no TYPE header", name)
		}
	}
}
