// Command hemon is a terminal monitor for the observability endpoint that
// hebench/hestress serve with -metrics. It polls /metrics.json (and, with
// -events, /events.json) and renders a per-scheme dashboard: reclamation
// counters, the robustness gauges (pending, era lag, stalled sessions),
// scan-latency quantiles, the arena size-class table, scheme-deep gauges
// (Hyaline handoff stacks, WFE helping counters), and — when the endpoint
// runs with -trace/-monitor — reclamation-age quantiles, the longest-pinned
// table, and the health monitor's active alerts and transition log
// (/alerts.json). Nothing on the protect or retire path is timed, so there
// is no per-operation latency row: heperf's ledger measures those paths.
//
// Usage:
//
//	hebench -exp stalled -metrics 127.0.0.1:9200 -hold 1m &
//	hemon -addr 127.0.0.1:9200
//	hemon -addr 127.0.0.1:9200 -once -events 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/mem"
	"repro/internal/obs"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:9090", "host:port of a running -metrics endpoint")
		every  = flag.Duration("every", time.Second, "poll interval")
		once   = flag.Bool("once", false, "print one frame and exit")
		events = flag.Int("events", 0, "also show the last N flight-recorder events per scheme")
	)
	flag.Parse()

	client := &http.Client{Timeout: 5 * time.Second}
	for {
		frame, err := render(client, *addr, *events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hemon: %v\n", err)
			if *once {
				os.Exit(1)
			}
		} else {
			if !*once {
				fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
			}
			fmt.Print(frame)
		}
		if *once {
			return
		}
		time.Sleep(*every)
	}
}

func render(client *http.Client, addr string, events int) (string, error) {
	var snaps []obs.DomainSnapshot
	if err := getJSON(client, "http://"+addr+"/metrics.json", &snaps); err != nil {
		return "", err
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Scheme < snaps[j].Scheme })

	var b strings.Builder
	fmt.Fprintf(&b, "smr observability — %s — %s\n\n", addr, time.Now().Format("15:04:05"))
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %12s %8s %9s %8s %8s %8s\n",
		"scheme", "retired", "freed", "pending", "pend-bytes", "scans", "era-clock", "lag-max", "stalled", "dropped")
	for _, s := range snaps {
		lag, stalled := "-", "-"
		if s.HasEras {
			lag = fmt.Sprintf("%d", s.EraLagMax)
			stalled = fmt.Sprintf("%d", s.Stalled)
		}
		fmt.Fprintf(&b, "%-10s %10d %10d %10d %12d %8d %9d %8s %8s %8d\n",
			s.Scheme, s.Retired, s.Freed, s.Pending, s.PendingBytes, s.Scans, s.EraClock, lag, stalled, s.Dropped)
	}

	fmt.Fprintf(&b, "\n%-10s %-26s %8s\n", "latency", "scan p50/p99/max", "scans")
	for _, s := range snaps {
		fmt.Fprintf(&b, "%-10s %-26s %8d\n", s.Scheme, quantiles(s.Scan), s.Scan.Count)
	}

	// Lifecycle tracer: only schemes running with -trace carry the
	// reclamation-age histogram (retire→free latency — the runtime form of
	// the Equation-1 bound) and the longest-pinned table.
	var traceRows []obs.DomainSnapshot
	for _, s := range snaps {
		if s.HasTrace {
			traceRows = append(traceRows, s)
		}
	}
	if len(traceRows) > 0 {
		fmt.Fprintf(&b, "\n%-10s %-26s %12s %8s %8s\n",
			"tracer", "reclaim-age p50/p99/max", "aged-spans", "live", "pinned")
		for _, s := range traceRows {
			fmt.Fprintf(&b, "%-10s %-26s %12d %8d %8d\n",
				s.Scheme, quantiles(s.ReclaimAge), s.ReclaimAge.Count, s.TraceLive, len(s.Pinned))
		}
		for _, s := range traceRows {
			if len(s.Pinned) == 0 {
				continue
			}
			fmt.Fprintf(&b, "\n%s longest-pinned refs:\n", s.Scheme)
			for _, p := range s.Pinned {
				holders := "-"
				if len(p.Holders) > 0 {
					var parts []string
					for _, h := range p.Holders {
						parts = append(parts, fmt.Sprintf("s%d@era%d", h.Session, h.Era))
					}
					holders = strings.Join(parts, " ")
				}
				if p.BirthEra != 0 || p.RetireEra != 0 {
					fmt.Fprintf(&b, "  ref %#x  age %s  eras [%d,%d]  held by %s\n",
						p.Ref, ns(p.AgeNs), p.BirthEra, p.RetireEra, holders)
				} else {
					fmt.Fprintf(&b, "  ref %#x  age %s  held by %s\n", p.Ref, ns(p.AgeNs), holders)
				}
			}
		}
	}

	// Size-class occupancy: only domains whose arena exposes class accounting
	// (byte-value mode) carry the gauges. Class 0 is the typed node slab;
	// classes 1+ are the byte-payload ladder. Idle classes are elided.
	for _, s := range snaps {
		var active []mem.ClassStat
		for _, c := range s.Classes {
			if c.Live != 0 || c.Allocs != 0 {
				active = append(active, c)
			}
		}
		if len(active) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n%s arena size classes:\n", s.Scheme)
		fmt.Fprintf(&b, "  %5s %6s %10s %12s %10s %6s %10s %10s %8s %8s\n",
			"class", "size", "live", "live-bytes", "capacity", "slabs", "allocs", "frees", "spills", "refills")
		for _, c := range active {
			fmt.Fprintf(&b, "  %5d %6d %10d %12d %10d %6d %10d %10d %8d %8d\n",
				c.Class, c.Size, c.Live, c.Live*c.Footprint, c.Capacity, c.Slabs, c.Allocs, c.Frees, c.Spills, c.Refills)
		}
	}

	for _, s := range snaps {
		var active []obs.SessionEra
		for _, se := range s.Sessions {
			if se.Lag > 0 {
				active = append(active, se)
			}
		}
		if len(active) > 0 {
			sort.Slice(active, func(i, j int) bool { return active[i].Lag > active[j].Lag })
			if len(active) > 8 {
				active = active[:8]
			}
			fmt.Fprintf(&b, "\n%s lagging sessions:", s.Scheme)
			for _, se := range active {
				mark := ""
				if se.Stalled {
					mark = " STALLED"
				}
				fmt.Fprintf(&b, " [s%d lag=%d%s]", se.Session, se.Lag, mark)
			}
			fmt.Fprintln(&b)
		}
	}

	// Scheme-deep gauges: whatever the scheme registered beyond the generic
	// reclamation set — Hyaline handoff stacks, WFE helping counters.
	for _, s := range snaps {
		if len(s.SchemeMetrics) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n%s scheme metrics:\n", s.Scheme)
		for _, m := range s.SchemeMetrics {
			if m.Label != "" {
				var parts []string
				for _, lv := range m.Values {
					parts = append(parts, fmt.Sprintf("%s=%s=%d", m.Label, lv.Label, lv.Value))
				}
				if len(parts) == 0 {
					parts = append(parts, "-")
				}
				fmt.Fprintf(&b, "  %-36s %s\n", m.Name, strings.Join(parts, " "))
			} else {
				fmt.Fprintf(&b, "  %-36s %d\n", m.Name, m.Value)
			}
		}
	}

	// Health monitor: /alerts.json always exists on the endpoint and returns
	// empty slices when no monitor is attached, so this panel simply stays
	// blank in that case.
	var alerts struct {
		Status []obs.AlertStatus `json:"status"`
		Log    []obs.Alert       `json:"log"`
	}
	if err := getJSON(client, "http://"+addr+"/alerts.json", &alerts); err == nil {
		var active []obs.AlertStatus
		for _, st := range alerts.Status {
			if st.Active {
				active = append(active, st)
			}
		}
		if len(active) > 0 {
			fmt.Fprintf(&b, "\nACTIVE ALERTS:\n")
			for _, st := range active {
				fmt.Fprintf(&b, "  %-10s %-18s value=%d threshold=%d (raised %d, cleared %d)\n",
					st.Scheme, st.Invariant, st.Value, st.Threshold, st.Raises, st.Clears)
			}
		}
		if n := len(alerts.Log); n > 0 {
			const last = 8
			lo := n - last
			if lo < 0 {
				lo = 0
			}
			fmt.Fprintf(&b, "\nalert log (last %d of %d):\n", n-lo, n)
			for _, a := range alerts.Log[lo:] {
				fmt.Fprintf(&b, "  %10.3fs  %-5s %-10s %-18s value=%d threshold=%d %s\n",
					float64(a.TMillis)/1e3, strings.ToUpper(a.State), a.Scheme, a.Invariant, a.Value, a.Threshold, a.Detail)
			}
		}
	}

	if events > 0 {
		var recorded []struct {
			Scheme string      `json:"scheme"`
			Events []obs.Event `json:"events"`
		}
		if err := getJSON(client, fmt.Sprintf("http://%s/events.json?max=%d", addr, events), &recorded); err != nil {
			return "", err
		}
		for _, d := range recorded {
			if len(d.Events) == 0 {
				continue
			}
			fmt.Fprintf(&b, "\n%s flight recorder (last %d):\n", d.Scheme, len(d.Events))
			for _, e := range d.Events {
				fmt.Fprintf(&b, "  %12.3fms  s%-3d %-10s %d\n",
					float64(e.T)/1e6, e.Session, e.KindStr, e.Value)
			}
		}
	}
	return b.String(), nil
}

func quantiles(h obs.HistSnapshot) string {
	if h.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%s/%s/%s", ns(h.Quantile(0.5)), ns(h.Quantile(0.99)), ns(h.Max))
}

// ns renders a nanosecond reading with a compact unit.
func ns(v int64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fs", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fms", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dns", v)
	}
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
