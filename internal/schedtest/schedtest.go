// Package schedtest is a deterministic schedule-injection harness for the
// reclamation schemes and lock-free structures in this repository.
//
// Ordinary stress runs (cmd/hestress, -race tests) rely on the Go scheduler
// stumbling into a bad interleaving; the reclamation bugs this repository
// cares about — use-after-free around protect/retire/free, scans racing
// registry growth, helping protocols racing descriptor recycling — live in
// windows a preemptive scheduler hits rarely and never reproducibly. This
// package drives those windows on purpose:
//
//   - Yield gates (Point) are threaded through the reclamation
//     linearization points of every scheme (protection publish, era/epoch
//     advance, retire, scan snapshot, free) and through the CAS loops of
//     the data structures. In production (no controller installed) a gate
//     is one atomic load and an untaken branch, mirroring the
//     reclaim.Instrument pattern.
//   - A Controller runs a set of worker functions cooperatively: exactly
//     one worker owns the run token at any time, and at each gate the
//     controller decides — from a seeded PRNG — whether to pass the token
//     to another worker. Because only the token holder touches shared
//     state, the interleaving is fully determined by the seed and the
//     workers' own determinism: replaying a seed replays the schedule.
//   - Failing runs report the seed (Controller.Seed); cmd/hecheck prints
//     it and accepts it back via -seed for replay.
//
// Targeted exploration biases switching toward chosen gate kinds (e.g.
// only PointFree and PointProtect) so short schedules concentrate on the
// protect/retire/free windows instead of spreading switches uniformly.
package schedtest

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind classifies a yield gate by the linearization point it guards.
type Kind uint8

const (
	// PointProtect guards protection publication/validation windows
	// (HE/IBR era publish, HP pointer publish+validate, EBR/URCU
	// announcement stores, RC count acquire).
	PointProtect Kind = iota
	// PointEra guards global era/epoch/version clock advances.
	PointEra
	// PointRetire guards retire entry (after the delEra stamp, before the
	// retired-list push and any scan).
	PointRetire
	// PointScan guards scan snapshot collection (between slot-block reads,
	// where registry growth can race the walk).
	PointScan
	// PointFree guards the instant before retired objects are freed.
	PointFree
	// PointCAS guards data-structure CAS linearization points (list
	// unlink/insert, queue head/tail swings, stack top, wfqueue
	// announcement and descriptor replacement).
	PointCAS
	// PointSpin marks blocking wait loops (URCU Synchronize). The
	// controller ALWAYS reschedules at a spin gate — the waiter needs
	// another worker to make progress, and keeping the token would
	// livelock the schedule.
	PointSpin

	numKinds
)

var kindNames = [numKinds]string{
	"protect", "era", "retire", "scan", "free", "cas", "spin",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// active is the installed controller; nil outside Run. Point is the only
// hot-path reader.
var active atomic.Pointer[Controller]

// runMu serializes Run calls: gates are process-global, so two concurrent
// controllers would steal each other's workers.
var runMu sync.Mutex

// Point is the yield gate. Library code calls it at linearization points;
// with no controller installed it costs one atomic load and an untaken
// branch. Under a controller it may pass the run token to another worker,
// i.e. context-switch the cooperative schedule. Goroutines registered via
// BeginBystander (background reclaimers) bypass the schedule entirely — only
// the token holder may touch the controller.
//
// Point holds only the armed test so the compiler inlines it into every
// gated hot path (scripts/check.sh quick fails if it stops doing so);
// everything a controller needs lives in pointSlow.
func Point(k Kind) {
	if active.Load() != nil {
		pointSlow(k)
	}
}

// pointSlow is Point under an installed controller. It reloads the
// controller: Run may have uninstalled it since Point's test, in which case
// the gate is a no-op exactly as if the test had failed.
func pointSlow(k Kind) {
	c := active.Load()
	if c == nil || bystanderN.Load() != 0 && isBystander() {
		return
	}
	c.point(k)
}

// Enabled reports whether a controller is currently installed — used by
// assertions that are only meaningful under a deterministic schedule.
func Enabled() bool { return active.Load() != nil }

// Config parameterizes a schedule exploration run.
type Config struct {
	// Seed drives every scheduling decision. The same seed over the same
	// (deterministic) workers replays the same schedule.
	Seed uint64
	// SwitchPct is the percent probability (0..100) of passing the token
	// at an eligible gate. 0 defaults to 25. PointSpin gates always switch
	// regardless.
	SwitchPct int
	// Targeted, when non-empty, restricts switching to these gate kinds
	// (PointSpin is always eligible): schedules then perturb only the
	// chosen windows.
	Targeted []Kind
	// MaxSteps bounds the total gates executed before the run is declared
	// stuck (default 1 << 20). Exceeding it aborts the schedule with an
	// error naming the seed.
	MaxSteps uint64
}

type worker struct {
	id       int
	gate     chan struct{}
	finished bool
}

// Controller owns one cooperative schedule: the workers, the run token,
// and the seeded decision stream.
type Controller struct {
	seed     uint64
	rng      uint64
	switchAt [numKinds]bool
	pct      uint64
	maxSteps uint64
	steps    uint64

	workers []*worker
	cur     int

	// freeRun flips when the schedule aborts (budget, panic): gates become
	// no-ops and every parked worker is released so the run can drain on
	// the real scheduler.
	freeRun atomic.Bool

	errMu sync.Mutex
	errs  []string
}

// Seed returns the seed this schedule was built from — the replay handle a
// failing run must report.
func (c *Controller) Seed() uint64 { return c.seed }

// Steps returns the number of gates executed so far; it doubles as the
// logical timestamp of the current scheduling decision.
func (c *Controller) Steps() uint64 { return c.steps }

// Active returns the installed controller, or nil outside Run.
func Active() *Controller { return active.Load() }

// next is SplitMix64 — tiny, seedable, and good enough for schedule
// exploration.
func (c *Controller) next() uint64 {
	c.rng += 0x9E3779B97F4A7C15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (c *Controller) fail(msg string) {
	c.errMu.Lock()
	c.errs = append(c.errs, msg)
	c.errMu.Unlock()
}

// point implements Point for the token-holding worker. Only the current
// token holder executes user code, so the caller is c.workers[c.cur] by
// construction; workers parked in yield are blocked on their gate channel.
func (c *Controller) point(k Kind) {
	if c.freeRun.Load() {
		return
	}
	c.steps++
	if c.steps > c.maxSteps {
		c.fail(fmt.Sprintf("schedule budget exceeded after %d gates (possible livelock); seed=%d", c.steps, c.seed))
		c.abort()
		return
	}
	switch {
	case k == PointSpin:
		// A spinner waits on another worker's progress: always yield.
	case !c.switchAt[k]:
		return
	case c.next()%100 >= c.pct:
		return
	}
	c.yield(k == PointSpin)
}

// yield passes the token to a pseudo-randomly chosen other unfinished
// worker and blocks until the token comes back. mustSwitch (spin gates)
// reports a deadlock when no other worker remains to hand the token to.
func (c *Controller) yield(mustSwitch bool) {
	var candidates []int
	for _, w := range c.workers {
		if !w.finished && w.id != c.cur {
			candidates = append(candidates, w.id)
		}
	}
	if len(candidates) == 0 {
		if mustSwitch {
			c.fail(fmt.Sprintf("deadlock: worker %d spins with no runnable peers; seed=%d", c.cur, c.seed))
			c.abort()
		}
		return
	}
	next := candidates[c.next()%uint64(len(candidates))]
	me := c.workers[c.cur]
	c.cur = next
	c.workers[next].gate <- struct{}{}
	<-me.gate
}

// abort flips the schedule into free-run mode and releases every parked
// worker so the run drains on the real scheduler.
func (c *Controller) abort() {
	if !c.freeRun.CompareAndSwap(false, true) {
		return
	}
	for _, w := range c.workers {
		select {
		case w.gate <- struct{}{}:
		default:
		}
	}
}

// finish marks the current worker done and hands the token onward (or
// wakes nobody when it was the last).
func (c *Controller) finish(id int) {
	if c.freeRun.Load() {
		return
	}
	c.workers[id].finished = true
	var candidates []int
	for _, w := range c.workers {
		if !w.finished {
			candidates = append(candidates, w.id)
		}
	}
	if len(candidates) == 0 {
		return
	}
	next := candidates[c.next()%uint64(len(candidates))]
	c.cur = next
	c.workers[next].gate <- struct{}{}
}

// Run executes the worker functions under one deterministic cooperative
// schedule and returns an error describing any panic, deadlock or budget
// overrun (always naming the seed). Workers must be bounded: each runs a
// finite operation sequence and returns.
//
// Setup and teardown (building the structure, seeding it, draining it)
// belong OUTSIDE Run: gates are process-global and only armed while Run is
// installed, so surrounding code runs at full speed and cannot deadlock
// the token protocol.
func Run(cfg Config, workers ...func()) error {
	if len(workers) == 0 {
		return nil
	}
	runMu.Lock()
	defer runMu.Unlock()

	c := &Controller{
		seed:     cfg.Seed,
		rng:      cfg.Seed,
		pct:      25,
		maxSteps: cfg.MaxSteps,
	}
	if cfg.SwitchPct > 0 {
		c.pct = uint64(cfg.SwitchPct)
	}
	if c.pct > 100 {
		c.pct = 100
	}
	if c.maxSteps == 0 {
		c.maxSteps = 1 << 20
	}
	if len(cfg.Targeted) == 0 {
		for k := range c.switchAt {
			c.switchAt[k] = true
		}
	} else {
		for _, k := range cfg.Targeted {
			if int(k) < int(numKinds) {
				c.switchAt[k] = true
			}
		}
	}

	var wg sync.WaitGroup
	for i, fn := range workers {
		w := &worker{id: i, gate: make(chan struct{}, 1)}
		c.workers = append(c.workers, w)
		wg.Add(1)
		go func(w *worker, fn func()) {
			defer wg.Done()
			<-w.gate
			defer func() {
				if r := recover(); r != nil {
					c.fail(fmt.Sprintf("worker %d panicked: %v; seed=%d", w.id, r, c.seed))
					c.abort()
					return
				}
				c.finish(w.id)
			}()
			fn()
		}(w, fn)
	}

	active.Store(c)
	c.cur = int(c.next() % uint64(len(c.workers)))
	c.workers[c.cur].gate <- struct{}{}
	wg.Wait()
	active.Store(nil)

	c.errMu.Lock()
	defer c.errMu.Unlock()
	if len(c.errs) > 0 {
		return fmt.Errorf("schedtest: %s", c.errs[0])
	}
	return nil
}
