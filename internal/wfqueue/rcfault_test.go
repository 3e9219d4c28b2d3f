package wfqueue

import (
	"strings"
	"testing"

	"repro/internal/schedtest"
	"repro/smr"
)

// TestRCStaleDescriptorFault demonstrates FAULT-WFQ-RC-001, the reason the
// wait-free queue's row in the structure table (internal/bench/structs.go)
// does not admit RC, the one exclusion cmd/hestress consults (hecheck's
// struct matrix does not include the queue at all): the helping protocol hands descriptor refs
// between threads through the announcement array, and Valois slot-level
// counts cannot distinguish slot incarnations across a recycle the helper
// races with. A helper that read a cell just before replaceDesc swaps it
// can acquire its transient count on the slot's NEXT incarnation while
// dereferencing the previous one; with checked arenas the stale
// dereference trips a generation-mismatch fault.
//
// The body drives enqueuers and dequeuers under seeded cooperative
// schedules until a schedule reproduces the fault (the checked arenas
// panic on it; the controller recovers the panic into an error naming the
// seed). The combination is known-unsound — this is a demonstration, not
// a regression gate — so the test is skipped by default. Remove the Skip
// to reproduce the fault class and obtain a replayable seed.
func TestRCStaleDescriptorFault(t *testing.T) {
	t.Skip("FAULT-WFQ-RC-001: wfqueue+RC is a known-unsound combination (see the wfq row of bench.Structures); unskip to demonstrate")

	const workers = 3

	var failure string
	for seed := uint64(1); seed <= 256 && failure == ""; seed++ {
		q := New(smr.RC.Factory(), WithChecked(true), WithMaxThreads(workers))
		handles := make([]*Handle, workers)
		for w := range handles {
			handles[w] = q.Register()
		}
		fns := make([]func(), workers)
		for w := 0; w < workers; w++ {
			w := w
			fns[w] = func() {
				for k := 0; k < 6; k++ {
					if (uint64(w)+seed+uint64(k))%2 == 0 {
						q.Enqueue(handles[w], uint64(w)<<16|uint64(k))
					} else {
						q.Dequeue(handles[w])
					}
				}
			}
		}
		err := schedtest.Run(schedtest.Config{Seed: seed, SwitchPct: 60, MaxSteps: 1 << 20}, fns...)
		if err != nil && strings.Contains(err.Error(), "reclaimed") {
			failure = err.Error()
		}
	}
	if failure == "" {
		t.Fatal("no schedule in the seed budget reproduced FAULT-WFQ-RC-001; widen the budget")
	}
	t.Logf("reproduced FAULT-WFQ-RC-001: %s", failure)
}
