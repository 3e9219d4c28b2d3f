package bench

import (
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
	"repro/smr"
)

// TestSpanConservation proves the lifecycle tracer loses nothing: under a
// seeded, replayable schedtest schedule with exhaustive (SampleAll)
// tracing, every allocation across every reclaiming scheme must end in
// exactly one traced free by quiescent drain — no open spans left, no
// duplicate lives, zero dropped events. A scheme whose free path bypassed
// the traced substrate (Handle.FreeRetired / Base.freeAt) or whose retire
// path double-freed would break the count.
func TestSpanConservation(t *testing.T) {
	schemes := schemesOf(smr.HE, smr.HP, smr.EBR, smr.URCU, smr.IBR, smr.RC,
		smr.Hyaline, smr.HyalinePlain, smr.WFE)
	for _, s := range schemes {
		for _, seed := range []uint64{1, 2} {
			hub := obs.NewHub()
			env := Env{Hub: hub, Trace: obs.TraceConfig{
				Enabled: true, SampleAll: true,
				MaxLive: 1 << 16, MaxEvents: 1 << 12, MaxDone: 1 << 16,
			}}
			arena := mem.NewArena[uint64](mem.Checked[uint64](true))
			dom := env.Wrap(s).Make(arena, reclaim.Config{MaxThreads: 4, Slots: 2})
			doms := hub.Domains()
			if len(doms) != 1 {
				t.Fatalf("%s: %d obs domains attached, want 1", s.Name, len(doms))
			}
			tr := doms[0].Tracer()
			if tr == nil {
				t.Fatalf("%s: obs domain has no tracer", s.Name)
			}

			// Schedtest serializes the worker functions cooperatively, so the
			// plain counter and cells are safe to share.
			const churn = 150
			var cells [2]atomic.Uint64
			allocs := 0
			alloc := func() mem.Ref {
				ref, _ := arena.Alloc()
				allocs++
				dom.OnAlloc(ref)
				return ref
			}
			setup := dom.Register()
			for i := range cells {
				cells[i].Store(uint64(alloc()))
			}
			reader := dom.Register()
			w1 := dom.Register()
			w2 := dom.Register()

			churnCell := func(h *reclaim.Handle, cell *atomic.Uint64, ops int) func() {
				return func() {
					for i := 0; i < ops; i++ {
						ref := alloc()
						old := mem.Ref(cell.Swap(uint64(ref)))
						h.Retire(old)
					}
				}
			}
			err := schedtest.Run(schedtest.Config{Seed: seed, SwitchPct: 40, MaxSteps: 1 << 20},
				func() {
					for i := 0; i < churn; i++ {
						dom.BeginOp(reader)
						reader.Protect(0, &cells[i%len(cells)])
						dom.EndOp(reader)
					}
				},
				churnCell(w1, &cells[0], churn),
				churnCell(w2, &cells[1], churn),
			)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", s.Name, seed, err)
			}

			// Retire the final cell occupants so the drain can free every
			// allocation the run made.
			for i := range cells {
				w1.Retire(mem.Ref(cells[i].Load()))
			}
			dom.Unregister(reader)
			dom.Unregister(w1)
			dom.Unregister(w2)
			dom.Unregister(setup)
			dom.Drain()

			if n := tr.LiveCount(); n != 0 {
				for _, sp := range tr.LiveSpans() {
					t.Logf("%s seed=%d: open span ref=%#x retireT=%d events=%d",
						s.Name, seed, sp.Ref, sp.RetireT, len(sp.Events))
				}
				t.Fatalf("%s seed=%d: %d spans still open after quiescent drain", s.Name, seed, n)
			}
			if d := tr.Drops(); d != 0 {
				t.Fatalf("%s seed=%d: tracer dropped %d events under exhaustive caps", s.Name, seed, d)
			}
			done := tr.DrainDone()
			if len(done) != allocs {
				t.Fatalf("%s seed=%d: %d completed spans for %d allocations", s.Name, seed, len(done), allocs)
			}
			seen := map[uint64]bool{}
			protects, retires := 0, 0
			for _, sp := range done {
				// Generation bits make each life a distinct ref value, so a
				// repeat means one life was recorded (or freed) twice.
				if seen[sp.Ref] {
					t.Fatalf("%s seed=%d: ref %#x completed two lifecycle spans", s.Name, seed, sp.Ref)
				}
				seen[sp.Ref] = true
				if sp.FreeT == 0 {
					t.Fatalf("%s seed=%d: completed span ref=%#x has no free timestamp", s.Name, seed, sp.Ref)
				}
				for _, ev := range sp.Events {
					switch ev.Kind {
					case obs.SpanProtect:
						protects++
					case obs.SpanRetire:
						retires++
					}
				}
			}
			// Non-vacuity: the schedule must have exercised the protect and
			// retire hooks, or the conservation above proves nothing.
			if protects == 0 {
				t.Errorf("%s seed=%d: no protect events traced", s.Name, seed)
			}
			if retires == 0 {
				t.Errorf("%s seed=%d: no retire events traced", s.Name, seed)
			}
		}
	}
}
