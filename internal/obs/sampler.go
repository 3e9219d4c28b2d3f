package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// Sampler periodically folds a set of domains and appends JSON lines — the
// machine-readable form of the Figure-4 pending-over-time curves, plus the
// per-ref lifecycle spans and health alerts layered on top. Three line
// shapes share the file, distinguished by their top-level keys:
//
//   - snapshot: a DomainSnapshot object (has "scheme" and the gauge
//     fields) — one per domain per tick, unchanged since PR 4 so existing
//     consumers keep parsing.
//   - span:     {"scheme": S, "span": {...RefSpan...}} — one per completed
//     lifecycle span, drained from the domain's tracer each tick.
//   - alert:    {"alert": {...Alert...}} — one per health transition,
//     written by the monitor through WriteAlert.
//
// cmd/heanalyze reconstructs timelines, age histograms and pin reports
// from the mix offline.
type Sampler struct {
	mu      sync.Mutex
	w       *bufio.Writer
	closer  io.Closer
	done    chan struct{}
	wg      sync.WaitGroup
	stopped sync.Once
}

// spanLine is the JSONL envelope for one completed lifecycle span.
type spanLine struct {
	Scheme string   `json:"scheme"`
	Span   *RefSpan `json:"span"`
}

// alertLine is the JSONL envelope for one health alert transition.
type alertLine struct {
	Alert Alert `json:"alert"`
}

// StartSampler samples domains() every interval, writing JSON lines to w.
// The domains callback is re-evaluated each tick so late-attached domains
// are picked up. Call Stop to flush and halt; if w is also an io.Closer it
// is closed.
func StartSampler(w io.Writer, interval time.Duration, domains func() []*Domain) *Sampler {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	s := &Sampler{w: bufio.NewWriter(w), done: make(chan struct{})}
	if c, ok := w.(io.Closer); ok {
		s.closer = c
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				s.sample(domains())
			}
		}
	}()
	return s
}

// StartFileSampler opens (creating/truncating) path and samples into it.
func StartFileSampler(path string, interval time.Duration, domains func() []*Domain) (*Sampler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return StartSampler(f, interval, domains), nil
}

func (s *Sampler) sample(doms []*Domain) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range doms {
		s.writeLine(d, d.Snapshot())
		if tr := d.Tracer(); tr != nil {
			for _, sp := range tr.DrainDone() {
				s.writeLine(d, spanLine{Scheme: d.Name(), Span: sp})
			}
		}
	}
	s.w.Flush()
}

// writeLine marshals one record under the caller-held lock. A marshal
// failure is counted against the domain (smr_obs_dropped_total) instead of
// vanishing.
func (s *Sampler) writeLine(d *Domain, v any) {
	line, err := json.Marshal(v)
	if err != nil {
		d.NoteDropped(1)
		return
	}
	s.w.Write(line)
	s.w.WriteByte('\n')
}

// WriteAlert appends one health-alert line. The monitor installs this as
// its OnAlert sink; safe for concurrent use with sampling.
func (s *Sampler) WriteAlert(a Alert) {
	line, err := json.Marshal(alertLine{Alert: a})
	if err != nil {
		return
	}
	s.mu.Lock()
	s.w.Write(line)
	s.w.WriteByte('\n')
	s.w.Flush()
	s.mu.Unlock()
}

// Sample takes one immediate sample outside the ticker (drivers call it
// right before Stop so short runs still record their final state).
func (s *Sampler) Sample(doms []*Domain) { s.sample(doms) }

// Stop halts the ticker, joins the sampling goroutine, flushes, and closes
// the underlying file if any. Deterministic: when Stop returns, no sampler
// goroutine is running and every accepted line is on disk.
func (s *Sampler) Stop() {
	s.stopped.Do(func() {
		close(s.done)
		s.wg.Wait()
		s.mu.Lock()
		s.w.Flush()
		s.mu.Unlock()
		if s.closer != nil {
			s.closer.Close()
		}
	})
}
