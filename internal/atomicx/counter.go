package atomicx

// StripedCounter is a write-optimized counter distributed over per-thread
// cache-line padded stripes. Benchmark worker goroutines increment their own
// stripe with a plain atomic add (no contention, no false sharing); Sum folds
// all stripes. It is used for operation counting in the benchmark harness and
// for the synchronization-cost instrumentation behind Table 1.
//
// The stripe count is rounded up to a power of two and ids are masked, so
// any id — including session ids beyond the initially sized capacity, which
// the dynamically growing reclamation registry hands out — maps to a valid
// stripe. Two sessions sharing a stripe costs a shared cache line, never
// correctness: stripes are summed, not owned.
type StripedCounter struct {
	stripes []PaddedInt64
	mask    int
}

// NewStripedCounter returns a counter with at least one stripe per thread
// id in [0, threads), rounded up to a power of two.
func NewStripedCounter(threads int) *StripedCounter {
	n := 1
	for n < threads {
		n <<= 1
	}
	return &StripedCounter{stripes: make([]PaddedInt64, n), mask: n - 1}
}

// Inc adds 1 to the stripe owned by tid.
func (c *StripedCounter) Inc(tid int) { c.stripes[tid&c.mask].Add(1) }

// Add adds delta to the stripe owned by tid.
func (c *StripedCounter) Add(tid int, delta int64) { c.stripes[tid&c.mask].Add(delta) }

// Stripe returns the stripe cell owned by tid, for callers that cache the
// pointer and Add on it directly (the reclamation Handle hot paths).
func (c *StripedCounter) Stripe(tid int) *PaddedInt64 { return &c.stripes[tid&c.mask] }

// Sum folds all stripes. It is linearizable only in quiescence, which is all
// the harness needs (it reads after the workers have stopped).
func (c *StripedCounter) Sum() int64 { return c.SumFirst(len(c.stripes)) }

// SumFirst folds the stripes that ids [0, n) map to: the first
// min(n, Stripes()) stripes, since ids at or past the stripe count wrap
// onto lower stripes. A caller that knows no id at or above n has ever
// written skips the rest without losing a count.
func (c *StripedCounter) SumFirst(n int) int64 {
	var total int64
	for i := range c.stripes[:min(n, len(c.stripes))] {
		total += c.stripes[i].Load()
	}
	return total
}

// Reset zeroes all stripes.
func (c *StripedCounter) Reset() {
	for i := range c.stripes {
		c.stripes[i].Store(0)
	}
}

// Stripes reports the number of stripes (threads) in the counter.
func (c *StripedCounter) Stripes() int { return len(c.stripes) }

// HighWaterMark tracks the maximum of a monotonically sampled quantity, e.g.
// the peak number of retired-but-unreclaimed objects (Equation 1 of the
// paper). Update is lock-free: a CAS loop that only moves the mark upward.
type HighWaterMark struct {
	v PaddedInt64
}

// Observe raises the mark to sample if sample exceeds the current mark.
func (h *HighWaterMark) Observe(sample int64) {
	for {
		cur := h.v.Load()
		if sample <= cur {
			return
		}
		if h.v.CompareAndSwap(cur, sample) {
			return
		}
	}
}

// Max returns the highest observed sample (0 if none).
func (h *HighWaterMark) Max() int64 { return h.v.Load() }

// Reset clears the mark.
func (h *HighWaterMark) Reset() { h.v.Store(0) }
