package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// Hub aggregates the observability domains of a process and exports them
// over HTTP: Prometheus text format on /metrics, snapshot JSON on
// /metrics.json, the merged flight recorder on /events.json, health alerts
// on /alerts.json, expvar on /debug/vars and the standard pprof handlers
// under /debug/pprof/. A hub optionally owns a Monitor and a Sampler so
// one Close tears the whole observability plane down deterministically.
type Hub struct {
	mu      sync.Mutex
	domains []*Domain
	mon     *Monitor
	sampler *Sampler
	stops   []func()
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{} }

// SetMonitor hands the health monitor to the hub: /alerts.json and the
// smr_alerts_* series read from it, and Close stops it.
func (h *Hub) SetMonitor(m *Monitor) {
	h.mu.Lock()
	h.mon = m
	h.mu.Unlock()
}

// Monitor returns the attached health monitor, nil if none.
func (h *Hub) Monitor() *Monitor {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.mon
}

// SetSampler hands the JSONL sampler to the hub so Close flushes and stops
// it after the monitor (alerts fired during shutdown still land on disk).
func (h *Hub) SetSampler(s *Sampler) {
	h.mu.Lock()
	h.sampler = s
	h.mu.Unlock()
}

// Close tears down everything the hub owns, in dependency order and
// deterministically: the monitor first (its goroutine joins, so no alert
// fires afterwards), then the sampler (flushes and joins), then every HTTP
// server Serve started (each stop joins its serve goroutine). Safe to call
// twice; components the driver never attached are skipped.
func (h *Hub) Close() {
	h.mu.Lock()
	mon, smp, stops := h.mon, h.sampler, h.stops
	h.mon, h.sampler, h.stops = nil, nil, nil
	h.mu.Unlock()
	if mon != nil {
		mon.Stop()
	}
	if smp != nil {
		smp.Stop()
	}
	for _, stop := range stops {
		stop()
	}
}

// Attach registers a domain, replacing any previous domain with the same
// name (benchmark drivers rebuild per-scheme domains between phases).
func (h *Hub) Attach(d *Domain) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, old := range h.domains {
		if old.Name() == d.Name() {
			h.domains[i] = d
			return
		}
	}
	h.domains = append(h.domains, d)
}

// Domains returns the attached domains in attach order.
func (h *Hub) Domains() []*Domain {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*Domain(nil), h.domains...)
}

// Snapshots folds every attached domain.
func (h *Hub) Snapshots() []DomainSnapshot {
	doms := h.Domains()
	out := make([]DomainSnapshot, 0, len(doms))
	for _, d := range doms {
		out = append(out, d.Snapshot())
	}
	return out
}

// Handler returns the hub's HTTP mux.
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", h.serveMetrics)
	mux.HandleFunc("/metrics.json", h.serveJSON)
	mux.HandleFunc("/events.json", h.serveEvents)
	mux.HandleFunc("/alerts.json", h.serveAlerts)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve listens on addr (host:port; port 0 picks a free one) and serves the
// hub in a background goroutine. It returns the bound address and a stop
// function. The hub also registers its snapshots under the expvar name
// "smr" the first time any hub serves.
func (h *Hub) Serve(addr string) (string, func(), error) {
	publishExpvar(h)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h.Handler(), ReadHeaderTimeout: 5 * time.Second}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln)
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			_ = srv.Close()
			wg.Wait()
		})
	}
	h.mu.Lock()
	h.stops = append(h.stops, stop)
	h.mu.Unlock()
	return ln.Addr().String(), stop, nil
}

// expvar's registry is append-only and process-global, so the "smr" var is
// published once and fans out to every hub that ever served.
var (
	expvarOnce sync.Once
	expvarMu   sync.Mutex
	expvarHubs []*Hub
)

func publishExpvar(h *Hub) {
	expvarMu.Lock()
	expvarHubs = append(expvarHubs, h)
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("smr", expvar.Func(func() any {
			expvarMu.Lock()
			hubs := append([]*Hub(nil), expvarHubs...)
			expvarMu.Unlock()
			var all []DomainSnapshot
			for _, hub := range hubs {
				all = append(all, hub.Snapshots()...)
			}
			return all
		}))
	})
}

func (h *Hub) serveJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(h.Snapshots())
}

func (h *Hub) serveEvents(w http.ResponseWriter, r *http.Request) {
	max := 0
	if v := r.URL.Query().Get("max"); v != "" {
		max, _ = strconv.Atoi(v)
	}
	type domainEvents struct {
		Scheme string  `json:"scheme"`
		Events []Event `json:"events"`
	}
	var out []domainEvents
	for _, d := range h.Domains() {
		out = append(out, domainEvents{Scheme: d.Name(), Events: d.Events(max)})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

func (h *Hub) serveAlerts(w http.ResponseWriter, _ *http.Request) {
	type alertsView struct {
		Status []AlertStatus `json:"status"`
		Log    []Alert       `json:"log"`
	}
	var view alertsView
	if m := h.Monitor(); m != nil {
		view.Status = m.Status()
		view.Log = m.Log()
	}
	if view.Status == nil {
		view.Status = []AlertStatus{}
	}
	if view.Log == nil {
		view.Log = []Alert{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(view)
}

func (h *Hub) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, h.Snapshots())
	if m := h.Monitor(); m != nil {
		WriteAlertMetrics(w, m.Status())
	}
}

// WriteMetrics renders snapshots in the Prometheus text exposition format.
// Hand-rolled on purpose: the repo is stdlib-only, and the format is four
// line shapes (HELP, TYPE, sample, histogram sample).
func WriteMetrics(w io.Writer, snaps []DomainSnapshot) {
	counter := func(name, help string, val func(DomainSnapshot) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, s := range snaps {
			fmt.Fprintf(w, "%s{scheme=%q} %d\n", name, s.Scheme, val(s))
		}
	}
	gauge := func(name, help string, val func(DomainSnapshot) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, s := range snaps {
			fmt.Fprintf(w, "%s{scheme=%q} %d\n", name, s.Scheme, val(s))
		}
	}
	counter("smr_obs_dropped_total", "Observability records lost: flight-recorder overwrites, tracer cap losses, sampler failures.", func(s DomainSnapshot) int64 { return s.Dropped })
	counter("smr_retired_total", "Nodes retired into reclamation domains.", func(s DomainSnapshot) int64 { return s.Retired })
	counter("smr_freed_total", "Nodes returned to the allocator.", func(s DomainSnapshot) int64 { return s.Freed })
	counter("smr_scans_total", "Reclamation scans executed.", func(s DomainSnapshot) int64 { return s.Scans })
	counter("smr_pool_hits_total", "Session acquires served from the handle pool.", func(s DomainSnapshot) int64 { return s.PoolHits })
	counter("smr_pool_misses_total", "Session acquires that registered a fresh slot.", func(s DomainSnapshot) int64 { return s.PoolMisses })
	gauge("smr_pending", "Nodes retired but not yet freed.", func(s DomainSnapshot) int64 { return s.Pending })
	gauge("smr_pending_bytes", "Bytes retired but not yet freed.", func(s DomainSnapshot) int64 { return s.PendingBytes })
	gauge("smr_peak_pending", "High-water mark of pending nodes.", func(s DomainSnapshot) int64 { return s.PeakPending })
	gauge("smr_era_clock", "Global era/epoch clock reading.", func(s DomainSnapshot) int64 { return int64(s.EraClock) })

	fmt.Fprintf(w, "# HELP smr_era_lag_max Largest published-era lag across sessions.\n# TYPE smr_era_lag_max gauge\n")
	for _, s := range snaps {
		if s.HasEras {
			fmt.Fprintf(w, "smr_era_lag_max{scheme=%q} %d\n", s.Scheme, s.EraLagMax)
		}
	}
	fmt.Fprintf(w, "# HELP smr_stalled_sessions Sessions pinning an era older than the stall threshold.\n# TYPE smr_stalled_sessions gauge\n")
	for _, s := range snaps {
		if s.HasEras {
			fmt.Fprintf(w, "smr_stalled_sessions{scheme=%q} %d\n", s.Scheme, s.Stalled)
		}
	}
	fmt.Fprintf(w, "# HELP smr_era_lag Published-era lag behind the global clock, per active session.\n# TYPE smr_era_lag gauge\n")
	for _, s := range snaps {
		for _, se := range s.Sessions {
			fmt.Fprintf(w, "smr_era_lag{scheme=%q,session=\"%d\"} %d\n", s.Scheme, se.Session, se.Lag)
		}
	}

	// Offload pipeline series: emitted only for domains with the background
	// reclaimer enabled (same conditional pattern as the era-lag gauges).
	offGauge := func(name, help, kind string, val func(*OffloadStats) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for _, s := range snaps {
			if s.Offload != nil {
				fmt.Fprintf(w, "%s{scheme=%q} %d\n", name, s.Scheme, val(s.Offload))
			}
		}
	}
	offGauge("smr_offload_workers", "Background reclaimer goroutines engaged in reclamation (parked workers excluded).", "gauge", func(o *OffloadStats) int64 { return o.Workers })
	offGauge("smr_offload_workers_total", "Configured background reclaimer goroutines.", "gauge", func(o *OffloadStats) int64 { return o.WorkersTotal })
	offGauge("smr_offload_queue_refs", "Refs handed off and awaiting background reclamation.", "gauge", func(o *OffloadStats) int64 { return o.QueuedRefs })
	offGauge("smr_offload_queue_bytes", "Bytes handed off and awaiting background reclamation.", "gauge", func(o *OffloadStats) int64 { return o.QueuedBytes })
	offGauge("smr_offload_watermark_bytes", "Backpressure watermark for the offload queue.", "gauge", func(o *OffloadStats) int64 { return o.WatermarkBytes })
	offGauge("smr_offload_handoffs_total", "Retired batches handed to the background reclaimer.", "counter", func(o *OffloadStats) int64 { return o.Handoffs })
	offGauge("smr_offload_fallback_total", "Handoffs refused at the watermark (inline scan fallback).", "counter", func(o *OffloadStats) int64 { return o.Fallbacks })

	// Per-size-class arena series: emitted only for domains whose allocator
	// exposes class accounting. Labelled by class id and payload size.
	classGauge := func(name, help, kind string, val func(ArenaClass) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for _, s := range snaps {
			for _, c := range s.Classes {
				fmt.Fprintf(w, "%s{scheme=%q,class=\"%d\",size=\"%d\"} %d\n", name, s.Scheme, c.Class, c.Size, val(c))
			}
		}
	}
	classGauge("smr_arena_class_live", "Live blocks per arena size class.", "gauge", func(c ArenaClass) int64 { return c.Live })
	classGauge("smr_arena_class_live_bytes", "Live bytes per arena size class (blocks x footprint).", "gauge", func(c ArenaClass) int64 { return c.Live * c.Footprint })
	classGauge("smr_arena_class_capacity", "Blocks addressable through published slabs per size class.", "gauge", func(c ArenaClass) int64 { return c.Capacity })
	classGauge("smr_arena_class_slabs", "Published slabs per size class.", "gauge", func(c ArenaClass) int64 { return c.Slabs })
	classGauge("smr_arena_class_allocs_total", "Block allocations per size class.", "counter", func(c ArenaClass) int64 { return c.Allocs })
	classGauge("smr_arena_class_frees_total", "Block frees per size class.", "counter", func(c ArenaClass) int64 { return c.Frees })
	classGauge("smr_arena_class_spills_total", "Magazine-to-freelist batch spills per size class.", "counter", func(c ArenaClass) int64 { return c.Spills })
	classGauge("smr_arena_class_refills_total", "Freelist-to-magazine batch refills per size class.", "counter", func(c ArenaClass) int64 { return c.Refills })

	// Equation-1 budget and lifecycle-tracer series: the budget gauge is
	// emitted when the reclaim wiring installed one; the reclamation-age
	// histogram and live-span gauges only for domains tracing lifecycles.
	fmt.Fprintf(w, "# HELP smr_budget_bytes Equation-1 pending-bytes budget installed by the reclaim wiring.\n# TYPE smr_budget_bytes gauge\n")
	for _, s := range snaps {
		if s.BudgetBytes > 0 {
			fmt.Fprintf(w, "smr_budget_bytes{scheme=%q} %d\n", s.Scheme, s.BudgetBytes)
		}
	}
	fmt.Fprintf(w, "# HELP smr_trace_live_spans Open lifecycle spans in the per-ref tracer.\n# TYPE smr_trace_live_spans gauge\n")
	for _, s := range snaps {
		if s.HasTrace {
			fmt.Fprintf(w, "smr_trace_live_spans{scheme=%q} %d\n", s.Scheme, int64(s.TraceLive))
		}
	}

	// Scheme-deep series (Hyaline handoff depths, WFE helping counters,
	// per-worker offload queues): names come from the snapshots themselves,
	// grouped so HELP/TYPE headers are emitted once per series.
	type schemeSample struct {
		scheme string
		m      SchemeMetric
	}
	var names []string
	grouped := map[string][]schemeSample{}
	for _, s := range snaps {
		for _, m := range s.SchemeMetrics {
			if _, ok := grouped[m.Name]; !ok {
				names = append(names, m.Name)
			}
			grouped[m.Name] = append(grouped[m.Name], schemeSample{s.Scheme, m})
		}
	}
	for _, name := range names {
		samples := grouped[name]
		kind := samples[0].m.Kind
		if kind == "" {
			kind = "gauge"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, samples[0].m.Help, name, kind)
		for _, ss := range samples {
			if ss.m.Label != "" && len(ss.m.Values) > 0 {
				for _, lv := range ss.m.Values {
					fmt.Fprintf(w, "%s{scheme=%q,%s=%q} %d\n", name, ss.scheme, ss.m.Label, lv.Label, lv.Value)
				}
			} else {
				fmt.Fprintf(w, "%s{scheme=%q} %d\n", name, ss.scheme, ss.m.Value)
			}
		}
	}

	writeHist(w, "smr_protect_latency_ns", "Sampled protect-path latency.", snaps, func(s DomainSnapshot) HistSnapshot { return s.Protect })
	writeHist(w, "smr_retire_latency_ns", "Sampled retire-path latency.", snaps, func(s DomainSnapshot) HistSnapshot { return s.Retire })
	writeHist(w, "smr_scan_latency_ns", "Reclamation scan latency.", snaps, func(s DomainSnapshot) HistSnapshot { return s.Scan })
	writeHist(w, "smr_offload_latency_ns", "Handoff-to-reclaimed latency of offloaded batches.", snaps, func(s DomainSnapshot) HistSnapshot { return s.OffloadLat })

	fmt.Fprintf(w, "# HELP smr_reclaim_age_ns Retire-to-free latency of traced refs (the live Equation-1 reading).\n# TYPE smr_reclaim_age_ns histogram\n")
	for _, s := range snaps {
		if !s.HasTrace {
			continue
		}
		hs := s.ReclaimAge
		var cum int64
		for b, n := range hs.Buckets {
			cum += n
			fmt.Fprintf(w, "smr_reclaim_age_ns_bucket{scheme=%q,le=\"%d\"} %d\n", s.Scheme, BucketUpper(b), cum)
		}
		fmt.Fprintf(w, "smr_reclaim_age_ns_bucket{scheme=%q,le=\"+Inf\"} %d\n", s.Scheme, hs.Count)
		fmt.Fprintf(w, "smr_reclaim_age_ns_sum{scheme=%q} %d\n", s.Scheme, hs.Sum)
		fmt.Fprintf(w, "smr_reclaim_age_ns_count{scheme=%q} %d\n", s.Scheme, hs.Count)
	}
}

// WriteAlertMetrics renders the health monitor's hysteresis states as
// Prometheus series: lifetime raise/clear counters and the active gauge
// per (scheme, invariant).
func WriteAlertMetrics(w io.Writer, status []AlertStatus) {
	fmt.Fprintf(w, "# HELP smr_alerts_total Health-alert transitions by state.\n# TYPE smr_alerts_total counter\n")
	for _, st := range status {
		fmt.Fprintf(w, "smr_alerts_total{scheme=%q,invariant=%q,state=\"raise\"} %d\n", st.Scheme, st.Invariant, st.Raises)
		fmt.Fprintf(w, "smr_alerts_total{scheme=%q,invariant=%q,state=\"clear\"} %d\n", st.Scheme, st.Invariant, st.Clears)
	}
	fmt.Fprintf(w, "# HELP smr_alert_active Health invariants currently in the raised state.\n# TYPE smr_alert_active gauge\n")
	for _, st := range status {
		v := 0
		if st.Active {
			v = 1
		}
		fmt.Fprintf(w, "smr_alert_active{scheme=%q,invariant=%q} %d\n", st.Scheme, st.Invariant, v)
	}
}

func writeHist(w io.Writer, name, help string, snaps []DomainSnapshot, sel func(DomainSnapshot) HistSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, s := range snaps {
		hs := sel(s)
		var cum int64
		for b, n := range hs.Buckets {
			cum += n
			fmt.Fprintf(w, "%s_bucket{scheme=%q,le=\"%d\"} %d\n", name, s.Scheme, BucketUpper(b), cum)
		}
		fmt.Fprintf(w, "%s_bucket{scheme=%q,le=\"+Inf\"} %d\n", name, s.Scheme, hs.Count)
		fmt.Fprintf(w, "%s_sum{scheme=%q} %d\n", name, s.Scheme, hs.Sum)
		fmt.Fprintf(w, "%s_count{scheme=%q} %d\n", name, s.Scheme, hs.Count)
	}
}
