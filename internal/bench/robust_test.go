package bench

import (
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
	"repro/smr"
)

// TestStalledReaderBounds is Figure 4's robustness contrast as a seeded,
// repeatable regression test: one reader parks inside a read-side critical
// section while a writer churns retirements through a deterministic
// schedtest schedule. Era-robust schemes (HE, WFE, hyaline-1r) and HP must
// keep pending memory bounded by the live set at the stall; the
// epoch-shaped schemes (EBR, non-robust hyaline) must pin essentially all
// of the churn — if they ever stopped pinning it, the A/B in
// examples/stalledreader and EXPERIMENTS.md would silently lose its
// unbounded side.
func TestStalledReaderBounds(t *testing.T) {
	const churn = 200
	cases := []struct {
		scheme  Scheme
		bounded bool
	}{
		{Of(smr.HE), true},
		{Of(smr.HP), true},
		{Of(smr.WFE), true},
		{Of(smr.Hyaline), true},
		{Of(smr.HyalinePlain), false},
		{Of(smr.EBR), false},
	}
	for _, tc := range cases {
		for _, seed := range []uint64{1, 2, 3} {
			arena := mem.NewArena[uint64](mem.Checked[uint64](true))
			dom := tc.scheme.Make(arena, reclaim.Config{MaxThreads: 4, Slots: 2})

			var stallCell, churnCell atomic.Uint64
			setup := dom.Register()
			for _, c := range []*atomic.Uint64{&stallCell, &churnCell} {
				ref, _ := arena.Alloc()
				dom.OnAlloc(ref)
				c.Store(uint64(ref))
			}

			stalled := dom.Register()
			writer := dom.Register()
			err := schedtest.Run(schedtest.Config{Seed: seed, SwitchPct: 30},
				func() {
					// The sleepy reader: enters, protects, never leaves. No
					// EndOp — its published era outlives the whole churn.
					dom.BeginOp(stalled)
					stalled.Protect(0, &stallCell)
				},
				func() {
					for i := 0; i < churn; i++ {
						ref, _ := arena.Alloc()
						dom.OnAlloc(ref)
						old := mem.Ref(churnCell.Swap(uint64(ref)))
						writer.Retire(old)
					}
				},
			)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", tc.scheme.Name, seed, err)
			}

			st := dom.Stats()
			// Bounded schemes may pin the handful of nodes alive (or born)
			// around the stall instant plus an unscanned tail; 10% of the
			// churn is far above any legitimate bound and far below pinning.
			if tc.bounded && st.Pending > churn/10 {
				t.Errorf("%s seed=%d: pending=%d (bytes=%d) — bounded scheme pinned the churn",
					tc.scheme.Name, seed, st.Pending, st.PendingBytes)
			}
			if !tc.bounded && st.Pending < churn*9/10 {
				t.Errorf("%s seed=%d: pending=%d — unbounded scheme unexpectedly reclaimed past the stalled reader",
					tc.scheme.Name, seed, st.Pending)
			}
			if tc.bounded && st.PendingBytes > int64(churn/10)*int64(arena.SlotBytes()) {
				t.Errorf("%s seed=%d: pending bytes=%d exceeds the bounded-byte budget",
					tc.scheme.Name, seed, st.PendingBytes)
			}

			dom.EndOp(stalled)
			dom.Unregister(stalled)
			dom.Unregister(writer)
			dom.Unregister(setup)
			dom.Drain()
			if s := dom.Stats(); s.Pending != 0 {
				t.Errorf("%s seed=%d: pending=%d after release and drain", tc.scheme.Name, seed, s.Pending)
			}
		}
	}
}
