// Command heanalyze reconstructs reclamation behaviour offline from the
// JSONL files the -sample flag of hebench/hestress writes. The file mixes
// three line shapes (see internal/obs.Sampler): per-domain snapshots,
// completed per-ref lifecycle spans (-trace) and health-alert transitions
// (-monitor). heanalyze folds them into:
//
//   - a per-scheme summary: spans completed, reclamation-age (retire→free)
//     quantiles and a log2 age histogram recomputed from the spans
//     themselves — the offline form of the live smr_reclaim_age_ns series;
//   - per-ref timelines (-spans N / -ref R): every recorded lifecycle event
//     of the longest-lived spans, timestamped relative to allocation;
//   - a per-session pin report from each scheme's peak-pinned snapshot
//     (and, if refs are still pinned, its final one): which sessions hold
//     pinned refs, at what era, for how long — the offline attribution of
//     a Figure-4 stall to the session causing it;
//   - the alert log: every raise/clear transition the monitor emitted.
//
// Usage:
//
//	heanalyze run.jsonl
//	heanalyze -scheme HE -spans 3 run.jsonl
//	heanalyze -ref 0x1a2b run.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// jsonlLine probes a line's shape: span and alert envelopes carry their
// distinguishing key, snapshot lines carry neither and re-decode as a full
// DomainSnapshot.
type jsonlLine struct {
	Scheme string          `json:"scheme"`
	Span   json.RawMessage `json:"span"`
	Alert  json.RawMessage `json:"alert"`
}

// schemeData accumulates everything the file recorded for one scheme.
type schemeData struct {
	name  string
	spans []*obs.RefSpan
	last  *obs.DomainSnapshot // final snapshot: the end state
	peak  *obs.DomainSnapshot // snapshot with the largest pinned table: the worst moment of the run
	snaps int
}

func main() {
	var (
		schemeFilter = flag.String("scheme", "", "restrict the report to this scheme label")
		spansN       = flag.Int("spans", 0, "print full event timelines for the N longest-lived spans per scheme")
		refFilter    = flag.String("ref", "", "print every span recorded for this ref (decimal or 0x hex)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: heanalyze [-scheme S] [-spans N] [-ref R] file.jsonl")
		os.Exit(2)
	}

	var wantRef uint64
	if *refFilter != "" {
		v, err := strconv.ParseUint(strings.TrimPrefix(*refFilter, "0x"), parseBase(*refFilter), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -ref %q: %v\n", *refFilter, err)
			os.Exit(2)
		}
		wantRef = v
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()

	schemes := map[string]*schemeData{}
	order := []string{}
	var alerts []obs.Alert
	bad := 0

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe jsonlLine
		if err := json.Unmarshal(raw, &probe); err != nil {
			bad++
			continue
		}
		switch {
		case probe.Alert != nil:
			var a obs.Alert
			if json.Unmarshal(probe.Alert, &a) == nil {
				alerts = append(alerts, a)
			} else {
				bad++
			}
		case probe.Span != nil:
			if *schemeFilter != "" && probe.Scheme != *schemeFilter {
				continue
			}
			var sp obs.RefSpan
			if json.Unmarshal(probe.Span, &sp) != nil {
				bad++
				continue
			}
			sd := getScheme(schemes, &order, probe.Scheme)
			sd.spans = append(sd.spans, &sp)
		case probe.Scheme != "":
			if *schemeFilter != "" && probe.Scheme != *schemeFilter {
				continue
			}
			var snap obs.DomainSnapshot
			if json.Unmarshal(raw, &snap) != nil {
				bad++
				continue
			}
			sd := getScheme(schemes, &order, probe.Scheme)
			sd.last = &snap
			if sd.peak == nil || len(snap.Pinned) > len(sd.peak.Pinned) ||
				(len(snap.Pinned) > 0 && len(snap.Pinned) == len(sd.peak.Pinned) &&
					snap.Pinned[0].AgeNs > sd.peak.Pinned[0].AgeNs) {
				sd.peak = &snap
			}
			sd.snaps++
		default:
			bad++
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "read: %v\n", err)
		os.Exit(1)
	}

	if *refFilter != "" {
		printRef(schemes, order, wantRef)
		return
	}

	for _, name := range order {
		sd := schemes[name]
		printScheme(sd, *spansN)
	}
	printAlerts(alerts, *schemeFilter)
	if bad > 0 {
		fmt.Printf("\n%d malformed line(s) skipped\n", bad)
	}
}

func parseBase(s string) int {
	if strings.HasPrefix(s, "0x") {
		return 16
	}
	return 10
}

func getScheme(m map[string]*schemeData, order *[]string, name string) *schemeData {
	if sd, ok := m[name]; ok {
		return sd
	}
	sd := &schemeData{name: name}
	m[name] = sd
	*order = append(*order, name)
	return sd
}

// printScheme emits the per-scheme report: span counts, recomputed
// reclamation-age distribution, the final snapshot's pin attribution, and
// optionally the longest span timelines.
func printScheme(sd *schemeData, spansN int) {
	fmt.Printf("== %s ==\n", sd.name)
	fmt.Printf("snapshots: %d   completed spans: %d\n", sd.snaps, len(sd.spans))

	// Reclamation age (retire→free), recomputed from the spans — the
	// runtime Equation-1 measurement, offline.
	var ages []int64
	for _, sp := range sd.spans {
		if sp.RetireT > 0 && sp.FreeT > 0 {
			ages = append(ages, sp.FreeT-sp.RetireT)
		}
	}
	if len(ages) > 0 {
		sort.Slice(ages, func(i, j int) bool { return ages[i] < ages[j] })
		fmt.Printf("reclamation age (retire→free, %d spans): p50=%s p90=%s p99=%s max=%s\n",
			len(ages), ns(quantile(ages, 0.50)), ns(quantile(ages, 0.90)),
			ns(quantile(ages, 0.99)), ns(ages[len(ages)-1]))
		printAgeHistogram(ages)
	}

	if s := sd.last; s != nil {
		if s.Dropped > 0 {
			fmt.Printf("dropped observability events: %d\n", s.Dropped)
		}
		if s.BudgetBytes > 0 {
			fmt.Printf("pending bytes at end: %d (budget %d)\n", s.PendingBytes, s.BudgetBytes)
		}
	}
	// Pin attribution from the worst moment of the run — the snapshot with
	// the largest pinned table. During a stalled-reader episode that is the
	// stall itself, even if everything was reclaimed by the final snapshot.
	if p := sd.peak; p != nil && len(p.Pinned) > 0 {
		printPinned(p, fmt.Sprintf("peak, t=%dms", p.TMillis))
		if sd.last != nil && sd.last != p && len(sd.last.Pinned) > 0 {
			printPinned(sd.last, "still pinned at end")
		}
	}

	if spansN > 0 && len(sd.spans) > 0 {
		spans := append([]*obs.RefSpan(nil), sd.spans...)
		sort.Slice(spans, func(i, j int) bool {
			return spans[i].FreeT-spans[i].AllocT > spans[j].FreeT-spans[j].AllocT
		})
		if len(spans) > spansN {
			spans = spans[:spansN]
		}
		fmt.Printf("longest-lived spans:\n")
		for _, sp := range spans {
			printTimeline(sp)
		}
	}
	fmt.Println()
}

// printPinned renders one snapshot's longest-pinned table with its
// per-session holder attribution, then aggregates it into a per-session pin
// report (how many pinned refs each session is responsible for).
func printPinned(s *obs.DomainSnapshot, label string) {
	if len(s.Pinned) == 0 {
		return
	}
	fmt.Printf("pinned refs (%s, top %d by retire-age):\n", label, len(s.Pinned))
	type pinAgg struct {
		count  int
		maxAge int64
		era    uint64
	}
	bySession := map[int]*pinAgg{}
	for _, p := range s.Pinned {
		holders := "none (awaiting scan)"
		if len(p.Holders) > 0 {
			var parts []string
			for _, h := range p.Holders {
				parts = append(parts, fmt.Sprintf("session %d @ era %d", h.Session, h.Era))
				agg := bySession[h.Session]
				if agg == nil {
					agg = &pinAgg{}
					bySession[h.Session] = agg
				}
				agg.count++
				agg.era = h.Era
				if p.AgeNs > agg.maxAge {
					agg.maxAge = p.AgeNs
				}
			}
			holders = strings.Join(parts, ", ")
		}
		if p.BirthEra != 0 || p.RetireEra != 0 {
			fmt.Printf("  ref %#x  age %s  eras [%d,%d]  held by: %s\n",
				p.Ref, ns(p.AgeNs), p.BirthEra, p.RetireEra, holders)
		} else {
			fmt.Printf("  ref %#x  age %s  held by: %s\n", p.Ref, ns(p.AgeNs), holders)
		}
	}
	if len(bySession) > 0 {
		var ids []int
		for id := range bySession {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Printf("per-session pin report:\n")
		for _, id := range ids {
			agg := bySession[id]
			stalled := ""
			for _, se := range s.Sessions {
				if se.Session == id && se.Stalled {
					stalled = "  STALLED"
				}
			}
			fmt.Printf("  session %d: pins %d of %d listed refs, era %d, oldest %s%s\n",
				id, agg.count, len(s.Pinned), agg.era, ns(agg.maxAge), stalled)
		}
	}
}

// printTimeline renders one span's full event list, timestamps relative to
// the allocation.
func printTimeline(sp *obs.RefSpan) {
	life := "open"
	if sp.FreeT > 0 {
		life = ns(sp.FreeT - sp.AllocT)
	}
	eras := ""
	if sp.BirthEra != 0 || sp.RetireEra != 0 {
		eras = fmt.Sprintf("  eras [%d,%d]", sp.BirthEra, sp.RetireEra)
	}
	fmt.Printf("  ref %#x  lifetime %s%s\n", sp.Ref, life, eras)
	for _, ev := range sp.Events {
		val := ""
		if ev.Value != 0 {
			val = fmt.Sprintf("  value=%d", ev.Value)
		}
		sess := "-"
		if ev.Session >= 0 {
			sess = strconv.Itoa(ev.Session)
		}
		fmt.Printf("    +%-10s %-8s session=%s%s\n", ns(ev.T-sp.AllocT), ev.KindStr, sess, val)
	}
	if sp.Truncated > 0 {
		fmt.Printf("    (%d further events truncated)\n", sp.Truncated)
	}
}

// printRef prints every span any scheme recorded for one ref.
func printRef(schemes map[string]*schemeData, order []string, ref uint64) {
	found := 0
	for _, name := range order {
		for _, sp := range schemes[name].spans {
			if sp.Ref == ref {
				fmt.Printf("== %s ==\n", name)
				printTimeline(sp)
				found++
			}
		}
	}
	if found == 0 {
		fmt.Printf("no completed span recorded for ref %#x\n", ref)
	}
}

func printAlerts(alerts []obs.Alert, schemeFilter string) {
	var kept []obs.Alert
	for _, a := range alerts {
		if schemeFilter == "" || a.Scheme == schemeFilter {
			kept = append(kept, a)
		}
	}
	if len(kept) == 0 {
		return
	}
	fmt.Printf("== alerts (%d transitions) ==\n", len(kept))
	for _, a := range kept {
		fmt.Printf("  t=%6dms  %-6s %-12s %-20s value=%d threshold=%d  %s\n",
			a.TMillis, a.State, a.Scheme, a.Invariant, a.Value, a.Threshold, a.Detail)
	}
}

// printAgeHistogram renders the log2 bucket counts of the age distribution.
func printAgeHistogram(sorted []int64) {
	buckets := map[int]int{}
	maxB := 0
	for _, a := range sorted {
		b := 0
		if a > 0 {
			b = bits.Len64(uint64(a))
		}
		buckets[b]++
		if b > maxB {
			maxB = b
		}
	}
	for b := 0; b <= maxB; b++ {
		n := buckets[b]
		if n == 0 {
			continue
		}
		lo := int64(0)
		if b > 0 {
			lo = int64(1) << (b - 1)
		}
		bar := strings.Repeat("#", scaleBar(n, len(sorted)))
		fmt.Printf("  %10s  %7d  %s\n", "≥"+ns(lo), n, bar)
	}
}

func scaleBar(n, total int) int {
	if total == 0 {
		return 0
	}
	w := n * 40 / total
	if w == 0 {
		w = 1
	}
	return w
}

// quantile reads the q-quantile from an ascending-sorted slice.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// ns renders a nanosecond count with an adaptive unit.
func ns(v int64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fms", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.1fµs", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dns", v)
	}
}
