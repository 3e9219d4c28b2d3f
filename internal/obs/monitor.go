package obs

import (
	"fmt"
	"sync"
	"time"
)

// Online health monitor: a watcher that folds every attached domain on a
// fixed cadence and evaluates robustness invariants over the gauges — the
// live form of the bounds the paper states offline. Each invariant runs
// through a hysteresis gate (RaiseTicks consecutive breaches to raise,
// ClearTicks consecutive clean readings to clear), so a single noisy
// snapshot neither pages nor silences. Alerts are structured events fanned
// out to the Hub (/alerts.json, smr_alerts_* series) and, via the OnAlert
// callback, to the JSONL sampler and to any caller-installed handler.
//
// Invariants watched per domain:
//
//   - pending-budget: PendingBytes exceeds the domain's Equation-1 budget
//     (installed by reclaim wiring as a function of ScanR, the sessions
//     registered so far, slots and the arena slot footprint) plus the
//     largest live set a published era has been able to pin: a stalled
//     reader of a robust scheme (HE, WFE, Hyaline-1R) legitimately holds
//     every object alive when it stalled, and only growth past that is a
//     runaway.
//   - era-stall: at least one session pins an era older than the stall
//     threshold (the Figure-4 stalled-reader signature).
//   - reclaim-age-p99: the retire→free latency p99 from the lifecycle
//     tracer exceeds a configurable ceiling.
//   - handoff-growth: the Hyaline handoff-stack max depth grew on every
//     tick of the window — the monotone-growth signature of a detached
//     reader accumulating batches.

// MonitorConfig tunes the watcher. Zero values take defaults.
type MonitorConfig struct {
	// Interval between evaluation ticks. Default 250ms.
	Interval time.Duration
	// RaiseTicks consecutive breaching ticks raise an alert. Default 3.
	RaiseTicks int
	// ClearTicks consecutive clean ticks clear a raised alert. Default 3.
	ClearTicks int
	// AgeP99CeilNs is the reclamation-age p99 ceiling. Default 250ms.
	AgeP99CeilNs int64
	// MaxAlerts caps the retained alert log (oldest dropped). Default 128.
	MaxAlerts int
}

func (c MonitorConfig) defaulted() MonitorConfig {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.RaiseTicks <= 0 {
		c.RaiseTicks = 3
	}
	if c.ClearTicks <= 0 {
		c.ClearTicks = 3
	}
	if c.AgeP99CeilNs <= 0 {
		c.AgeP99CeilNs = int64(250 * time.Millisecond)
	}
	if c.MaxAlerts <= 0 {
		c.MaxAlerts = 128
	}
	return c
}

// Alert is one structured health transition: a raise when an invariant has
// breached for RaiseTicks consecutive ticks, a clear when it has then been
// clean for ClearTicks.
type Alert struct {
	TMillis   int64  `json:"t_ms"`
	Scheme    string `json:"scheme"`
	Invariant string `json:"invariant"`
	State     string `json:"state"` // "raise" | "clear"
	Value     int64  `json:"value"`
	Threshold int64  `json:"threshold"`
	Detail    string `json:"detail,omitempty"`
}

// AlertStatus is the current hysteresis state of one (scheme, invariant)
// pair, exported on /alerts.json and as smr_alerts_* series.
type AlertStatus struct {
	Scheme    string `json:"scheme"`
	Invariant string `json:"invariant"`
	Active    bool   `json:"active"`
	Raises    int64  `json:"raises"`
	Clears    int64  `json:"clears"`
	Value     int64  `json:"value"`
	Threshold int64  `json:"threshold"`
}

// invState is the hysteresis gate for one (scheme, invariant) key.
type invState struct {
	breach    int   // consecutive breaching ticks
	ok        int   // consecutive clean ticks
	active    bool  // alert currently raised
	raises    int64 // lifetime raise count
	clears    int64 // lifetime clear count
	value     int64 // last observed value
	threshold int64 // last threshold
	lastDepth int64 // handoff-growth: previous tick's reading
	seenDepth bool  // handoff-growth: lastDepth valid
	pinnable  int64 // pending-budget: running max of the unretired live bytes
}

// Monitor evaluates health invariants over a set of domains. Build with
// NewMonitor, then either Start the background ticker or drive Step
// directly (tests do the latter for determinism).
type Monitor struct {
	cfg     MonitorConfig
	domains func() []*Domain
	onAlert func(Alert)

	mu     sync.Mutex
	states map[string]*invState
	order  []string // stable emission order for Status
	log    []Alert

	startMu sync.Mutex
	done    chan struct{}
	wg      sync.WaitGroup
	started bool
}

// NewMonitor builds a monitor over the domains() set (re-evaluated each
// tick, so late-attached domains are picked up — same contract as the
// Sampler).
func NewMonitor(cfg MonitorConfig, domains func() []*Domain) *Monitor {
	return &Monitor{
		cfg:     cfg.defaulted(),
		domains: domains,
		states:  make(map[string]*invState),
	}
}

// SetOnAlert installs a callback invoked (outside the monitor lock) for
// every raise and clear. Install before Start; the sampler's WriteAlert is
// the usual sink.
func (m *Monitor) SetOnAlert(fn func(Alert)) { m.onAlert = fn }

// Start launches the evaluation ticker. Idempotent.
func (m *Monitor) Start() {
	m.startMu.Lock()
	defer m.startMu.Unlock()
	if m.started {
		return
	}
	m.started = true
	m.done = make(chan struct{})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(m.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-m.done:
				return
			case <-t.C:
				m.Step()
			}
		}
	}()
}

// Stop halts the ticker and joins the watcher goroutine. Safe to call
// without Start and safe to call twice.
func (m *Monitor) Stop() {
	m.startMu.Lock()
	defer m.startMu.Unlock()
	if !m.started {
		return
	}
	m.started = false
	close(m.done)
	m.wg.Wait()
}

// Step runs one evaluation tick over every domain. Exported so tests (and
// drivers that want snapshot-aligned evaluation) can drive the monitor
// deterministically without the ticker.
func (m *Monitor) Step() {
	var fired []Alert
	for _, d := range m.domains() {
		fired = append(fired, m.eval(d.Snapshot())...)
	}
	if m.onAlert != nil {
		for _, a := range fired {
			m.onAlert(a)
		}
	}
}

// reading is one invariant's evaluation against a snapshot.
type reading struct {
	invariant string
	breach    bool
	value     int64
	threshold int64
	detail    string
}

func (m *Monitor) eval(s DomainSnapshot) []Alert {
	var rs []reading
	if s.BudgetBytes > 0 {
		threshold := s.BudgetBytes
		if len(s.Classes) > 0 {
			// Equation 1 lets a published era pin every object alive at that
			// era, so the threshold grows by the largest unretired live set
			// seen: arena live bytes minus the pending bytes within them.
			live := -s.PendingBytes
			for _, c := range s.Classes {
				live += c.Live * c.Footprint
			}
			m.mu.Lock()
			st := m.state(s.Scheme + "/pending-budget")
			st.pinnable = max(st.pinnable, live)
			threshold += st.pinnable
			m.mu.Unlock()
		}
		rs = append(rs, reading{
			invariant: "pending-budget",
			breach:    s.PendingBytes > threshold,
			value:     s.PendingBytes,
			threshold: threshold,
			detail:    "pending bytes exceed the Equation-1 budget plus the live set an era can pin",
		})
	}
	if s.HasEras {
		rs = append(rs, reading{
			invariant: "era-stall",
			breach:    s.Stalled > 0,
			value:     int64(s.EraLagMax),
			threshold: int64(s.Stalled),
			detail:    fmt.Sprintf("%d session(s) pin an era beyond the stall threshold", s.Stalled),
		})
	}
	if s.ReclaimAge.Count > 0 {
		rs = append(rs, reading{
			invariant: "reclaim-age-p99",
			breach:    s.ReclaimAge.Quantile(0.99) > m.cfg.AgeP99CeilNs,
			value:     s.ReclaimAge.Quantile(0.99),
			threshold: m.cfg.AgeP99CeilNs,
			detail:    "retire-to-free latency p99 above ceiling",
		})
	}
	if v, ok := s.SchemeMetric("smr_hyaline_handoff_depth_max"); ok {
		key := s.Scheme + "/handoff-growth"
		m.mu.Lock()
		st := m.state(key)
		grew := st.seenDepth && v > st.lastDepth && v > 0
		st.lastDepth, st.seenDepth = v, true
		m.mu.Unlock()
		rs = append(rs, reading{
			invariant: "handoff-growth",
			breach:    grew,
			value:     v,
			threshold: 0,
			detail:    "hyaline handoff-stack depth grew every tick of the window",
		})
	}

	var fired []Alert
	m.mu.Lock()
	for _, r := range rs {
		if a, ok := m.gate(s.Scheme, r); ok {
			fired = append(fired, a)
		}
	}
	m.mu.Unlock()
	return fired
}

// state returns (creating if needed) the hysteresis state for key. Caller
// holds m.mu.
func (m *Monitor) state(key string) *invState {
	st, ok := m.states[key]
	if !ok {
		st = &invState{}
		m.states[key] = st
		m.order = append(m.order, key)
	}
	return st
}

// gate pushes one reading through the hysteresis state machine. Caller
// holds m.mu. Returns the alert to emit, if this tick crossed a boundary.
func (m *Monitor) gate(scheme string, r reading) (Alert, bool) {
	st := m.state(scheme + "/" + r.invariant)
	st.value, st.threshold = r.value, r.threshold
	if r.breach {
		st.breach++
		st.ok = 0
	} else {
		st.ok++
		st.breach = 0
	}
	var state string
	switch {
	case !st.active && st.breach >= m.cfg.RaiseTicks:
		st.active = true
		st.raises++
		state = "raise"
	case st.active && st.ok >= m.cfg.ClearTicks:
		st.active = false
		st.clears++
		state = "clear"
	default:
		return Alert{}, false
	}
	a := Alert{
		TMillis:   Now() / int64(time.Millisecond),
		Scheme:    scheme,
		Invariant: r.invariant,
		State:     state,
		Value:     r.value,
		Threshold: r.threshold,
		Detail:    r.detail,
	}
	m.log = append(m.log, a)
	if len(m.log) > m.cfg.MaxAlerts {
		m.log = m.log[len(m.log)-m.cfg.MaxAlerts:]
	}
	return a, true
}

// Status returns the current per-(scheme, invariant) hysteresis states in
// first-seen order.
func (m *Monitor) Status() []AlertStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]AlertStatus, 0, len(m.order))
	for _, key := range m.order {
		st := m.states[key]
		scheme, inv := key, ""
		for i := len(key) - 1; i >= 0; i-- {
			if key[i] == '/' {
				scheme, inv = key[:i], key[i+1:]
				break
			}
		}
		out = append(out, AlertStatus{
			Scheme:    scheme,
			Invariant: inv,
			Active:    st.active,
			Raises:    st.raises,
			Clears:    st.clears,
			Value:     st.value,
			Threshold: st.threshold,
		})
	}
	return out
}

// Log returns a copy of the retained alert transitions, oldest first.
func (m *Monitor) Log() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.log...)
}
