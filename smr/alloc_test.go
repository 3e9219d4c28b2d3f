package smr_test

import (
	"testing"

	"repro/smr"
)

// The zero-allocation bar for the public API: the steady-state
// per-operation path — Acquire, BeginOp, protected Load, Deref, EndOp,
// Alloc, Publish, Retire, Release — must allocate nothing. Guard methods are
// concrete-struct wrappers the compiler inlines (no interface dispatch),
// pooled Acquire revives the Guard parked in the handle's Wrapper slot, and
// Atomic.Load compiles down to Handle.Protect. The time the Guard adds is
// not zero (about 1.4-1.7 ns per protected Load, heperf's smr.load_ns minus
// reclaim.handle_protect_ns); an allocation would add far more, and this
// gate catches it first.

// allocSteadyState runs one full public-API operation cycle against a
// prefilled domain: a protected read of the shared cell, then a
// replace-and-retire churn of one node.
func allocSteadyState(d *smr.Domain[node], head *smr.Atomic[node]) {
	g := d.Acquire()
	g.BeginOp()
	p := head.Load(g, 0)
	_ = d.Deref(g, p).key
	g.EndOp()

	np, n := d.Alloc(g)
	n.key = 1
	d.Publish(np.Ref())
	old := head.Peek()
	head.Store(np)
	g.Retire(old.Ref())
	g.Release()
}

func TestAllocFreeSteadyState(t *testing.T) {
	for _, s := range []smr.Scheme{smr.HE, smr.HP} {
		t.Run(s.String(), func(t *testing.T) {
			d := smr.New[node](s, smr.Config{MaxThreads: 4, Slots: 2, ScanR: 1})
			var head smr.Atomic[node]
			g := d.Register()
			p, _ := d.Alloc(g)
			d.Publish(p.Ref())
			head.Store(p)
			g.Release()

			// Warm up: let the retire list, the arena magazines and the
			// session pool reach their steady-state capacities before
			// measuring.
			for i := 0; i < 4096; i++ {
				allocSteadyState(d, &head)
			}

			avg := testing.AllocsPerRun(1000, func() { allocSteadyState(d, &head) })
			if avg != 0 {
				t.Errorf("public API steady state allocates %.2f objects/op, want 0\n"+
					"(the Guard fast path must compile to the internal Handle path with no\n"+
					"escapes; inspect with: go build -gcflags='-m=1' ./smr 2>&1 | grep escape)",
					avg)
			}
		})
	}
}
