package bench

import (
	"flag"
	"fmt"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/reclaim"
)

// Env is the run environment a driver hands the harness: where domains
// report observability, whether they trace lifecycles, and whether set
// structures carry byte payloads. The zero value is the uninstrumented,
// word-value default. Experiments read it from Options.Env; drivers, tests
// and examples apply it to a scheme with Wrap.
type Env struct {
	// Hub, when non-nil, receives an observability domain for every
	// reclamation domain a wrapped scheme constructs.
	Hub *obs.Hub
	// Trace is the lifecycle-tracing configuration of those obs domains;
	// it only takes effect alongside Hub.
	Trace obs.TraceConfig
	// ValSizer, when non-nil, switches the harness's set structures into
	// byte-value mode: each key carries a real []byte payload through the
	// size-class arena, sized per key by this function.
	ValSizer func(key uint64) int
}

// Wrap returns s with its factory routed through e: with a hub every
// constructed domain attaches an obs domain labelled s.Name.
func (e Env) Wrap(s Scheme) Scheme {
	mk := s.Make
	return Scheme{s.Name, func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		d := mk(a, c)
		if e.Hub != nil {
			reclaim.Observe(d, e.Hub, s.Name, obs.Config{Sessions: c.Defaulted().MaxThreads, Trace: e.Trace})
		}
		return d
	}}
}

// ParseTrace parses the drivers' -trace flag: "" is off, "all" traces every
// allocation, and a number N samples one allocation in 2^N.
func ParseTrace(s string) (obs.TraceConfig, error) {
	switch s {
	case "":
		return obs.TraceConfig{}, nil
	case "all":
		return obs.TraceConfig{Enabled: true, SampleAll: true}, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 || n > 32 {
		return obs.TraceConfig{}, fmt.Errorf("bad -trace value %q: want \"all\" or a sample shift in 0..32", s)
	}
	if n == 0 {
		return obs.TraceConfig{Enabled: true, SampleAll: true}, nil
	}
	return obs.TraceConfig{Enabled: true, SampleShift: uint(n)}, nil
}

// EnvFlags holds the run-environment flags hebench and hestress share.
type EnvFlags struct {
	Metrics     string
	Sample      string
	SampleEvery time.Duration
	Trace       string
	Monitor     bool
	ValSize     string
	Grow        bool
}

// RegisterEnvFlags declares the shared flags on fs; their values land in
// the returned EnvFlags once fs is parsed.
func RegisterEnvFlags(fs *flag.FlagSet) *EnvFlags {
	f := new(EnvFlags)
	fs.StringVar(&f.Metrics, "metrics", "", "serve live metrics on this address (/metrics Prometheus text, /metrics.json, /events.json flight recorder, /debug/vars, /debug/pprof); e.g. :9090 or 127.0.0.1:0")
	fs.StringVar(&f.Sample, "sample", "", "append per-domain observability snapshots to this file as JSON lines")
	fs.DurationVar(&f.SampleEvery, "sample-every", 100*time.Millisecond, "sampling interval for -sample")
	fs.StringVar(&f.Trace, "trace", "", "sampled per-ref lifecycle tracing: \"all\" = every allocation, N = 1 in 2^N (adds reclamation-age and pinned-ref telemetry to /metrics.json and span lines to -sample)")
	fs.BoolVar(&f.Monitor, "monitor", false, "run the online health monitor: invariant alerts at /alerts.json and smr_alerts_*, alert lines to -sample")
	fs.StringVar(&f.ValSize, "valsize", "0", "per-key []byte payload size for set-like structures: 0 = word values (off), N = fixed N bytes, zipf:N = skewed sizes in [8,N]")
	fs.BoolVar(&f.Grow, "grow", false, "undersize every registry (initial capacity 2) so workers register through dynamically grown slot blocks")
	return f
}

// Env builds the environment the parsed flags describe. Any of -metrics,
// -sample, -trace or -monitor creates a hub and starts what was asked
// for, printing the metrics address to stdout. The returned cleanup takes
// a final sample and closes the hub, which stops the monitor, flushes the
// sampler and joins the metrics server in that order, so shutdown alerts
// still reach the sample file; call it once the run is over. A bad flag
// value or a failed start is returned as the error.
func (f *EnvFlags) Env() (Env, func(), error) {
	var e Env
	var err error
	if e.ValSizer, err = ParseValSizer(f.ValSize); err != nil {
		return Env{}, nil, err
	}
	if e.Trace, err = ParseTrace(f.Trace); err != nil {
		return Env{}, nil, err
	}
	if f.Metrics == "" && f.Sample == "" && f.Trace == "" && !f.Monitor {
		return e, func() {}, nil
	}

	hub := obs.NewHub()
	if f.Metrics != "" {
		addr, _, err := hub.Serve(f.Metrics)
		if err != nil {
			return Env{}, nil, fmt.Errorf("metrics: %w", err)
		}
		fmt.Printf("metrics: http://%s/metrics\n", addr)
	}
	var smp *obs.Sampler
	if f.Sample != "" {
		smp, err = obs.StartFileSampler(f.Sample, f.SampleEvery, hub.Domains)
		if err != nil {
			hub.Close()
			return Env{}, nil, fmt.Errorf("sample: %w", err)
		}
		hub.SetSampler(smp)
	}
	if f.Monitor {
		mon := obs.NewMonitor(obs.MonitorConfig{}, hub.Domains)
		mon.SetOnAlert(func(a obs.Alert) {
			if smp != nil {
				smp.WriteAlert(a)
			}
		})
		hub.SetMonitor(mon)
		mon.Start()
	}
	e.Hub = hub
	cleanup := func() {
		if smp != nil {
			smp.Sample(hub.Domains())
		}
		hub.Close()
	}
	return e, cleanup, nil
}
