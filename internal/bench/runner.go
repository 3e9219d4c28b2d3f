package bench

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicx"
	"repro/internal/reclaim"
	"repro/smr"
)

// Set is the structure interface the harness drives — satisfied by
// list.List, hashmap.Map, bst.Tree and skiplist.SkipList. Get returns a
// key's value, decoded from its payload in byte-value mode. Register opens
// a worker's session; Domain names the scheme and reads its accounting.
type Set interface {
	Insert(g *smr.Guard, key, val uint64) bool
	Remove(g *smr.Guard, key uint64) bool
	Contains(g *smr.Guard, key uint64) bool
	Get(g *smr.Guard, key uint64) (uint64, bool)
	Register() *smr.Guard
	Domain() smr.Backend
}

// Result is the outcome of one benchmark cell.
type Result struct {
	Scheme   string
	Workload Workload
	Ops      int64
	Elapsed  time.Duration
	// MopsPerSec is total throughput in million operations per second.
	MopsPerSec float64
	// Domain is the reclamation accounting at the end of the run
	// (PeakPending is the Equation-1 subject).
	Domain reclaim.Stats
}

// opsPerDeadlineCheck bounds how often workers consult the stop flag.
const opsPerDeadlineCheck = 64

// RunSet executes the paper's §4 procedure on s for the given workload and
// duration. The structure must already be pre-filled (use Prefill). An
// optional stalledReaders count parks that many extra registered readers
// mid-protection for the whole run (the Appendix-A scenario).
func RunSet(s Set, w Workload, dur time.Duration, seed uint64) Result {
	dom := s.Domain()
	ops := atomicx.NewStripedCounter(w.Threads)
	var stop atomic.Bool
	var ready, done sync.WaitGroup
	start := make(chan struct{})

	for t := 0; t < w.Threads; t++ {
		ready.Add(1)
		done.Add(1)
		go func(worker int) {
			defer done.Done()
			g := s.Register()
			defer g.Unregister()
			rng := NewSplitMix64(seed + uint64(worker)*0x9E37)
			ready.Done()
			<-start
			var local int64
			for !stop.Load() {
				for i := 0; i < opsPerDeadlineCheck; i++ {
					key := rng.Intn(w.Size)
					if w.UpdatePercent > 0 && rng.Intn(100) < uint64(w.UpdatePercent) {
						// Paper: remove; if successful, re-insert the same
						// item, keeping the size at Size minus ongoing
						// removals.
						if s.Remove(g, key) {
							s.Insert(g, key, key)
						}
					} else {
						s.Contains(g, key)
					}
					local++
				}
			}
			ops.Add(g.ID(), local)
		}(t)
	}

	ready.Wait()
	began := time.Now()
	close(start)
	time.Sleep(dur)
	stop.Store(true)
	done.Wait()
	elapsed := time.Since(began)

	total := ops.Sum()
	return Result{
		Scheme:     dom.Name(),
		Workload:   w,
		Ops:        total,
		Elapsed:    elapsed,
		MopsPerSec: float64(total) / elapsed.Seconds() / 1e6,
		Domain:     dom.Stats(),
	}
}

// Prefill inserts keys 0..size-1 (the paper pre-fills the list with its
// full key range before measuring). Keys go in descending order so each
// insert lands at the head of a sorted list: O(n) total instead of O(n^2).
func Prefill(s Set, size uint64) {
	g := s.Register()
	for k := size; k > 0; k-- {
		s.Insert(g, k-1, k-1)
	}
	g.Unregister()
}

// Pinnable is implemented by structures that can park a reader inside a
// read-side critical section (list.List).
type Pinnable interface {
	Set
	Pin(g *smr.Guard)
	Unpin(g *smr.Guard)
}

// StalledReader parks one registered reader mid-operation until release is
// closed — the paper's "sleepy reader" (Appendix A): for HE it holds a
// published era, for HP a published pointer, for EBR an active epoch
// announcement, for URCU a read lock. It returns once the reader is
// parked. The returned channel closes once the reader has unregistered;
// callers must wait on it after closing release and before Drain, or the
// reader's abandonment races the drain's residue sweep.
func StalledReader(s Pinnable, release <-chan struct{}) (done <-chan struct{}) {
	parked := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		g := s.Register()
		s.Pin(g)
		close(parked)
		<-release
		s.Unpin(g)
		g.Unregister()
	}()
	<-parked
	return finished
}
