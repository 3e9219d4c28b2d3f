package main

import (
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hyaline"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/reclaim"
	"repro/internal/wfe"
)

type node struct{ key, next uint64 }

// TestRender drives one dashboard frame against a live hub serving an HE,
// a hyaline and a WFE domain, and checks each panel the frame promises:
// the counter row, the scan-latency row, the arena size-class table and
// the scheme-metrics block.
func TestRender(t *testing.T) {
	hub := obs.NewHub()
	for _, s := range []struct {
		name string
		mk   func(reclaim.Allocator, reclaim.Config) reclaim.Domain
	}{
		{"HE", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain { return core.New(a, c) }},
		{"hyaline", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
			return hyaline.New(a, c, hyaline.WithRobust(false))
		}},
		{"WFE", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain { return wfe.New(a, c) }},
	} {
		arena := mem.NewArena[node]()
		d := s.mk(arena, reclaim.Config{MaxThreads: 4, Slots: 2})
		reclaim.Observe(d, hub, s.name, obs.Config{Sessions: 4})
		r, w := d.Register(), d.Register()
		var cell atomic.Uint64
		ref, _ := arena.AllocAt(w.ID())
		d.OnAlloc(ref)
		cell.Store(uint64(ref))
		r.BeginOp() // held through the render: hyaline's handoffs land on r
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
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	frame, err := render(srv.Client(), strings.TrimPrefix(srv.URL, "http://"), 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(frame, "\n")
	// fields returns the fields of the first line at or after line from
	// whose first field is first, and that line's index.
	fields := func(from int, first string) ([]string, int) {
		for i := from; i < len(lines); i++ {
			if f := strings.Fields(lines[i]); len(f) > 0 && f[0] == first {
				return f, i
			}
		}
		t.Fatalf("no line starting %q after line %d in frame:\n%s", first, from, frame)
		return nil, 0
	}

	// Counter row: scheme retired freed pending pend-bytes scans ...
	counters, at := fields(0, "HE")
	if counters[1] != "64" || counters[5] == "0" {
		t.Errorf("HE counter row %v: want 64 retired and a nonzero scan count", counters)
	}
	// Latency row: scan quantiles and the scan count, nothing else.
	header, at := fields(at, "latency")
	if strings.Join(header, " ") != "latency scan p50/p99/max scans" {
		t.Errorf("latency header = %v", header)
	}
	if row, _ := fields(at, "HE"); len(row) != 3 || row[1] == "-" || row[2] != counters[5] {
		t.Errorf("HE latency row = %v, want scan quantiles and %s scans", row, counters[5])
	}
	// Arena table: class 0 allocated the reader's cell and 64 successors.
	at = slices.Index(lines, "HE arena size classes:")
	if at < 0 {
		t.Fatalf("no HE arena size-class table in frame:\n%s", frame)
	}
	if class, _ := fields(at, "0"); len(class) != 10 || class[6] != "65" {
		t.Errorf("HE class-0 row = %v, want 10 columns and 65 allocs", class)
	}
	// Scheme metrics: the parked reader holds hyaline's handoffs, and WFE
	// lists its helping counters.
	if depth, _ := fields(0, "smr_hyaline_handoff_depth_max"); depth[1] == "0" {
		t.Errorf("hyaline handoff depth = %v, want a parked batch", depth)
	}
	for _, want := range []string{"WFE scheme metrics:", "smr_wfe_announce_total", "smr_wfe_waiters"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame lacks %q:\n%s", want, frame)
		}
	}
}
