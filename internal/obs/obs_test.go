package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the log2 bucket map at its edges: zero, one,
// every power-of-two boundary (2^k-1 stays in bucket k, 2^k opens bucket
// k+1) and the saturating tail bucket.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{-5, 0}, // clock skew guard: negative durations land in bucket 0
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	for k := 1; k <= 62; k++ {
		hi := int64(uint64(1)<<uint(k) - 1) // 2^k - 1
		if got := bucketOf(hi); got != k {
			t.Errorf("bucketOf(2^%d-1 = %d) = %d, want %d", k, hi, got, k)
		}
		if k < 62 {
			if got := bucketOf(hi + 1); got != k+1 {
				t.Errorf("bucketOf(2^%d = %d) = %d, want %d", k, hi+1, got, k+1)
			}
		}
	}
	// BucketUpper must be the exact inclusive boundary bucketOf uses.
	for b := 0; b < NumBuckets-1; b++ {
		if got := bucketOf(BucketUpper(b)); got != b {
			t.Errorf("bucketOf(BucketUpper(%d)) = %d, want %d", b, got, b)
		}
		if got := bucketOf(BucketUpper(b) + 1); got != b+1 {
			t.Errorf("bucketOf(BucketUpper(%d)+1) = %d, want %d", b, got, b+1)
		}
	}
	if BucketUpper(NumBuckets-1) != math.MaxInt64 {
		t.Errorf("tail bucket upper = %d, want MaxInt64", BucketUpper(NumBuckets-1))
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram(4)
	// Spread across stripes; fold must merge them.
	h.Record(0, 0)
	h.Record(1, 1)
	h.Record(2, 100)  // bucket 7: [64,127]
	h.Record(3, 1000) // bucket 10: [512,1023]
	h.Record(5, 1023) // stripe 5&3=1, bucket 10
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 2124 || s.Max != 1023 {
		t.Fatalf("snapshot count/sum/max = %d/%d/%d, want 5/2124/1023", s.Count, s.Sum, s.Max)
	}
	if len(s.Buckets) != 11 {
		t.Fatalf("buckets not trimmed after last non-empty: len=%d want 11", len(s.Buckets))
	}
	for b, want := range map[int]int64{0: 1, 1: 1, 7: 1, 10: 2} {
		if s.Buckets[b] != want {
			t.Errorf("bucket %d = %d, want %d", b, s.Buckets[b], want)
		}
	}
	// rank = floor(0.5*5) = 2; cumulative count reaches 2 in bucket 1.
	if q := s.Quantile(0.5); q != 1 {
		t.Errorf("p50 = %d, want 1", q)
	}
	if q := s.Quantile(1.0); q != 1023 {
		t.Errorf("p100 = %d, want 1023", q)
	}
	if m := s.Mean(); m != 2124/5 {
		t.Errorf("mean = %d, want %d", m, 2124/5)
	}
	var empty HistSnapshot
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot quantile/mean must be 0")
	}
}

// TestRingWraparound fills a ring past its capacity and checks that exactly
// the newest capacity-many events survive, oldest first.
func TestRingWraparound(t *testing.T) {
	var r Ring
	r.init(8)
	if r.Cap() != 8 {
		t.Fatalf("cap = %d, want 8", r.Cap())
	}
	for i := 1; i <= 20; i++ {
		r.Record(EvFree, 3, uint64(i))
	}
	if r.Len() != 20 {
		t.Fatalf("len = %d, want 20", r.Len())
	}
	ev := r.Events()
	if len(ev) != 8 {
		t.Fatalf("readable events = %d, want 8 (capacity window)", len(ev))
	}
	for i, e := range ev {
		want := uint64(13 + i) // events 13..20 survive, oldest first
		if e.Value != want || e.Seq != want {
			t.Fatalf("event %d = value %d seq %d, want %d", i, e.Value, e.Seq, want)
		}
		if e.Session != 3 || e.Kind != EvFree || e.KindStr != "free" {
			t.Fatalf("event %d metadata = %+v", i, e)
		}
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].T < ev[i-1].T {
			t.Fatalf("events out of time order at %d", i)
		}
	}
}

// TestRingCapacityRounding checks init rounds up to a power of two.
func TestRingCapacityRounding(t *testing.T) {
	var r Ring
	r.init(100)
	if r.Cap() != 128 {
		t.Fatalf("cap = %d, want 128", r.Cap())
	}
}

// TestDomainEventsMerge records into several per-session rings and checks
// the merged stream is globally time-ordered with the documented
// (T, Session, Seq) tie-break, and that max truncation keeps the newest.
func TestDomainEventsMerge(t *testing.T) {
	d := NewDomain("HE", Config{Sessions: 4, RingEvents: 16})
	for i := 0; i < 40; i++ {
		d.Ring(i%4).Record(EvFree, i%4, uint64(i))
	}
	ev := d.Events(0)
	if len(ev) != 40 {
		t.Fatalf("merged events = %d, want 40", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if eventLess(ev[i], ev[i-1]) {
			t.Fatalf("merge order violated at %d: %+v before %+v", i, ev[i-1], ev[i])
		}
	}
	last := d.Events(5)
	if len(last) != 5 {
		t.Fatalf("Events(5) returned %d", len(last))
	}
	// Truncation must keep the tail (newest) of the merged stream.
	if last[4] != ev[39] || last[0] != ev[35] {
		t.Fatalf("Events(5) did not keep the newest events")
	}
}

// TestSortEventsTieBreak pins the deterministic order for same-nanosecond
// events: session then sequence.
func TestSortEventsTieBreak(t *testing.T) {
	ev := []Event{
		{T: 10, Session: 2, Seq: 1},
		{T: 10, Session: 1, Seq: 2},
		{T: 5, Session: 9, Seq: 9},
		{T: 10, Session: 1, Seq: 1},
	}
	sortEvents(ev)
	want := []Event{
		{T: 5, Session: 9, Seq: 9},
		{T: 10, Session: 1, Seq: 1},
		{T: 10, Session: 1, Seq: 2},
		{T: 10, Session: 2, Seq: 1},
	}
	for i := range want {
		if ev[i] != want[i] {
			t.Fatalf("position %d = %+v, want %+v", i, ev[i], want[i])
		}
	}
}

// testDomain builds a domain with a canned stats/era source.
func testDomain(name string) *Domain {
	d := NewDomain(name, Config{Sessions: 4, RingEvents: 16, StallEras: 100})
	d.SetStatsSource(func() Stats {
		return Stats{Retired: 10, Freed: 7, Pending: 3, PeakPending: 5, Scans: 2, EraClock: 500, PoolHits: 1, PoolMisses: 2}
	})
	d.SetEraSource(func() uint64 { return 500 }, func(yield func(int, uint64)) {
		yield(0, 500) // current
		yield(1, 350) // lagging and stalled (lag 150 >= 100)
	})
	d.SetObjectBytes(64)
	return d
}

func TestSnapshotGauges(t *testing.T) {
	s := testDomain("HE").Snapshot()
	if s.Pending != 3 || s.PendingBytes != 192 {
		t.Fatalf("pending/bytes = %d/%d, want 3/192", s.Pending, s.PendingBytes)
	}
	if !s.HasEras || s.EraLagMax != 150 || s.Stalled != 1 {
		t.Fatalf("era gauges = hasEras=%v lagMax=%d stalled=%d, want true/150/1", s.HasEras, s.EraLagMax, s.Stalled)
	}
	if len(s.Sessions) != 2 || !s.Sessions[1].Stalled || s.Sessions[0].Lag != 0 {
		t.Fatalf("session eras = %+v", s.Sessions)
	}
}

// TestHubMetricsScrape serves a hub on a loopback port and asserts the
// Prometheus exposition contains the promised series.
func TestHubMetricsScrape(t *testing.T) {
	hub := NewHub()
	hub.Attach(testDomain("HE"))
	hub.Attach(testDomain("HP"))
	hub.Attach(testDomain("HE")) // re-attach replaces, not duplicates
	if n := len(hub.Domains()); n != 2 {
		t.Fatalf("attached domains = %d, want 2 (replace by name)", n)
	}
	d := hub.Domains()[0]
	d.Ring(0).Record(EvScanStart, 0, 9)
	d.ScanStripe(0).Record(1500)

	addr, stop, err := hub.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	body := httpGet(t, "http://"+addr+"/metrics")
	for _, series := range []string{
		`smr_pending{scheme="HE"} 3`,
		`smr_pending_bytes{scheme="HE"} 192`,
		`smr_retired_total{scheme="HP"} 10`,
		`smr_freed_total{scheme="HE"} 7`,
		`smr_pool_hits_total{scheme="HE"} 1`,
		`smr_pool_misses_total{scheme="HE"} 2`,
		`smr_era_lag_max{scheme="HE"} 150`,
		`smr_stalled_sessions{scheme="HE"} 1`,
		`smr_era_lag{scheme="HE",session="1"} 150`,
		`smr_scan_latency_ns_count{scheme="HE"} 1`,
		`smr_scan_latency_ns_bucket{scheme="HE",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	var snaps []DomainSnapshot
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+addr+"/metrics.json")), &snaps); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if len(snaps) != 2 || snaps[0].Scheme != "HE" {
		t.Fatalf("/metrics.json snapshots = %+v", snaps)
	}

	var events []struct {
		Scheme string  `json:"scheme"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+addr+"/events.json?max=4")), &events); err != nil {
		t.Fatalf("/events.json: %v", err)
	}
	if len(events) != 2 || len(events[0].Events) != 1 || events[0].Events[0].KindStr != "scan_start" {
		t.Fatalf("/events.json = %+v", events)
	}

	if !strings.Contains(httpGet(t, "http://"+addr+"/debug/vars"), `"smr"`) {
		t.Error("/debug/vars missing the smr expvar")
	}
	if !strings.Contains(httpGet(t, "http://"+addr+"/debug/pprof/"), "profile") {
		t.Error("/debug/pprof/ index not served")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", url, resp.Status)
	}
	return string(b)
}

// syncBuffer makes bytes.Buffer safe for the sampler goroutine + test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestSamplerJSONL(t *testing.T) {
	d := testDomain("HE")
	var buf syncBuffer
	s := StartSampler(&buf, time.Hour, func() []*Domain { return []*Domain{d} })
	s.Sample([]*Domain{d})
	s.Sample([]*Domain{d})
	s.Stop()
	s.Stop() // idempotent

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sampler lines = %d, want 2", len(lines))
	}
	for _, line := range lines {
		var snap DomainSnapshot
		if err := json.Unmarshal([]byte(line), &snap); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if snap.Scheme != "HE" || snap.Pending != 3 {
			t.Fatalf("snapshot line = %+v", snap)
		}
	}
}

// TestRecorderSamplerChurn races writers against snapshot readers: four
// goroutines hammer the ring and scan histogram of shared stripes while the
// sampler and event merger read continuously. Run under -race this is the
// seqlock's regression test; without it, it still checks no event is ever
// invented (values outside the written range).
func TestRecorderSamplerChurn(t *testing.T) {
	d := NewDomain("HE", Config{Sessions: 2, RingEvents: 8}) // force ring sharing
	d.SetStatsSource(func() Stats { return Stats{} })

	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	var sampled syncBuffer
	smp := StartSampler(&sampled, time.Millisecond, func() []*Domain { return []*Domain{d} })

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d.Ring(w).Record(EvFree, w, uint64(i))
				d.ScanStripe(w).Record(int64(i % 1000))
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range d.Events(0) {
				if e.Kind != EvFree || e.Value >= perWriter || e.Session >= writers {
					panic(fmt.Sprintf("invented event: %+v", e))
				}
			}
			d.Snapshot()
		}
	}()

	wg.Wait()
	close(stop)
	<-readerDone
	smp.Stop()

	s := d.Snapshot()
	if s.Scan.Count != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", s.Scan.Count, writers*perWriter)
	}
	if got := d.Ring(0).Len() + d.Ring(1).Len(); got != writers*perWriter {
		t.Fatalf("recorded events = %d, want %d", got, writers*perWriter)
	}
}
