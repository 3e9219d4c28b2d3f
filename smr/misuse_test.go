package smr_test

import (
	"strings"
	"testing"

	"repro/smr"
)

type node struct {
	key  uint64
	next smr.Atomic[node]
}

func newDomain(s smr.Scheme) *smr.Domain[node] {
	return smr.New[node](s, smr.Config{MaxThreads: 4, Slots: 2})
}

// mustPanic runs fn and fails unless it panics with a message containing
// every substring in want. The substrings pin both the diagnosis ("released
// Guard") and the remedy ("Domain.Acquire") so the panics stay actionable.
func mustPanic(t *testing.T, fn func(), want ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatal("expected panic, got none")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.HasPrefix(msg, "smr: ") {
			t.Errorf("panic %q does not identify the package", msg)
		}
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Errorf("panic %q missing %q", msg, w)
			}
		}
	}()
	fn()
}

// TestMisusePanics pins the Guard lifecycle contract across every scheme:
// each class of misuse panics immediately, with a message that names the
// call, the state violated, and the fix. Run under -race in CI — the checks
// are owner-only plain loads, so the race detector proves the fast path
// stays free of cross-goroutine traffic.
func TestMisusePanics(t *testing.T) {
	for _, s := range smr.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			t.Run("DoubleRelease", func(t *testing.T) {
				d := newDomain(s)
				g := d.Acquire()
				g.Release()
				mustPanic(t, func() { g.Release() },
					"Guard.Release", "released Guard", "Domain.Acquire")
			})
			t.Run("RetireAfterRelease", func(t *testing.T) {
				d := newDomain(s)
				g := d.Register()
				p, _ := d.Alloc(g)
				d.Publish(p.Ref())
				g.Release()
				mustPanic(t, func() { g.Retire(p.Ref()) },
					"Guard.Retire", "released Guard")
			})
			t.Run("UnregisterAfterRelease", func(t *testing.T) {
				d := newDomain(s)
				g := d.Register()
				g.Release()
				mustPanic(t, func() { g.Unregister() },
					"Guard.Unregister", "released Guard")
			})
			t.Run("LoadOutsideWindow", func(t *testing.T) {
				d := newDomain(s)
				g := d.Register()
				defer g.Unregister()
				var cell smr.Atomic[node]
				mustPanic(t, func() { cell.Load(g, 0) },
					"Atomic.Load", "operation window", "Guard.BeginOp")
			})
			t.Run("LoadAfterRelease", func(t *testing.T) {
				d := newDomain(s)
				g := d.Register()
				g.Release()
				var cell smr.Atomic[node]
				mustPanic(t, func() { cell.Load(g, 0) },
					"Atomic.Load", "released Guard")
			})
			t.Run("LoadBytesOutsideWindow", func(t *testing.T) {
				d := newDomain(s)
				g := d.Register()
				defer g.Unregister()
				var cell smr.AtomicBytes
				mustPanic(t, func() { cell.Load(g, 0) },
					"AtomicBytes.Load", "operation window")
			})
			t.Run("NestedBeginOp", func(t *testing.T) {
				d := newDomain(s)
				g := d.Register()
				g.BeginOp()
				mustPanic(t, func() { g.BeginOp() },
					"Guard.BeginOp", "do not nest", "EndOp")
			})
			t.Run("EndOpOutsideWindow", func(t *testing.T) {
				d := newDomain(s)
				g := d.Register()
				defer g.Unregister()
				mustPanic(t, func() { g.EndOp() },
					"Guard.EndOp", "operation window")
			})
			t.Run("BeginOpAfterRelease", func(t *testing.T) {
				d := newDomain(s)
				g := d.Register()
				g.Release()
				mustPanic(t, func() { g.BeginOp() },
					"Guard.BeginOp", "released Guard")
			})
			t.Run("DerefOutsideWindow", func(t *testing.T) {
				d := newDomain(s)
				g := d.Register()
				defer g.Unregister()
				p, _ := d.Alloc(g)
				defer d.Free(g, p.Ref())
				mustPanic(t, func() { d.Deref(g, p) },
					"Domain.Deref", "operation window")
			})
			t.Run("AllocAfterReleaseFallsBack", func(t *testing.T) {
				// Alloc is deliberately check-free (the lifecycle branch
				// would cost it its inlinability; see Domain.Alloc): a
				// released guard carries a poisoned shard id, so the
				// arena's bounds check routes the allocation to the safe
				// shared path instead of a pooled session's magazine. The
				// first session call on the block still panics.
				d := newDomain(s)
				g := d.Register()
				g.Release()
				p, node := d.Alloc(g)
				if p.IsNil() || node == nil {
					t.Fatalf("Alloc through a released guard should fall back to the shared path, got nil")
				}
				mustPanic(t, func() { g.Retire(p.Ref()) },
					"Guard.Retire", "released Guard")
			})
			t.Run("FreeAfterRelease", func(t *testing.T) {
				d := newDomain(s)
				g := d.Register()
				p, _ := d.Alloc(g)
				g.Release()
				mustPanic(t, func() { d.Free(g, p.Ref()) },
					"Domain.Free", "released Guard")
			})
		})
	}
}

// TestGuardReuseAfterAcquire proves the flip side of the released-Guard
// panic: Acquire after Release revives the same Guard object, now valid
// again. A stale alias to the released Guard becomes usable exactly when
// the pool hands the session back out — the panic protects the gap, not
// the pointer identity.
func TestGuardReuseAfterAcquire(t *testing.T) {
	d := newDomain(smr.HE)
	g := d.Acquire()
	id := g.ID()
	g.Release()
	g2 := d.Acquire()
	if g2 != g {
		t.Fatalf("pooled Acquire allocated a new Guard (ids %d, %d)", id, g2.ID())
	}
	g2.BeginOp()
	g2.EndOp()
	g2.Unregister()
}

// TestOperationRoundTrip is the positive control: the full protected
// traversal protocol through the public surface, per scheme.
func TestOperationRoundTrip(t *testing.T) {
	for _, s := range smr.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			d := newDomain(s)
			g := d.Register()
			defer g.Unregister()

			p, n := d.Alloc(g)
			n.key = 42
			var head smr.Atomic[node]
			d.Publish(p.Ref())
			head.Store(p)

			g.BeginOp()
			got := head.Load(g, 0)
			if got.IsNil() || got.Ref() != p.Ref() {
				t.Fatalf("Load = %v, want %v", got.Ref(), p.Ref())
			}
			if k := d.Deref(g, got).key; k != 42 {
				t.Fatalf("Deref key = %d", k)
			}
			g.EndOp()

			head.Store(smr.PtrOf[node](smr.NilRef))
			g.Retire(p.Ref())
			d.Drain()
			if st := d.Stats(); st.Freed != 1 {
				t.Fatalf("Stats after drain: %+v", st)
			}
		})
	}
}
