package smr_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/reclaim"
	"repro/smr"
)

// Registry walks and stripe folds stop at the number of slot ids ever
// handed out, not at the registry's capacity. These tests put the session
// that matters at the last id below that count, so a walk or fold that
// stops one slot short fails them. They run every scheme row whose
// sessions publish cells; the rows without (RC, NONE) read no registry.
// Hyaline's rows reclaim through its own handoff table rather than a
// registry walk, so for them the scan cases pin the same contract without
// exercising the walk.

const prefixMaxThreads = 4

// prefixBackend builds sch over a checked arena with a small initial
// capacity and returns the backend's free-guard setter with it.
func prefixBackend(sch smr.Scheme) (*mem.Arena[node], smr.Backend, func(func(mem.Ref))) {
	arena := mem.NewArena[node](mem.Checked[node](true))
	b := sch.Factory()(arena, smr.Config{MaxThreads: prefixMaxThreads, Slots: 2})
	guard := b.(interface{ SetFreeGuard(func(mem.Ref)) }).SetFreeGuard
	return arena, b, guard
}

// publishesCells reports whether sch's sessions carry published cells,
// the rows whose scans read the registry.
func publishesCells(sch smr.Scheme) bool {
	_, b, _ := prefixBackend(sch)
	h := b.Register()
	defer h.Unregister()
	return len(h.Words) > 0
}

// registerN opens n sessions on b, in id order on a fresh registry.
func registerN(b smr.Backend, n int) []*reclaim.Handle {
	hs := make([]*reclaim.Handle, n)
	for i := range hs {
		hs[i] = b.Register()
	}
	return hs
}

// TestScanSeesLastIssuedSlot: a node protected only by the session holding
// the highest issued id survives a retire and the scans that follow it.
// The retires run on their own goroutine because URCU's Retire must block
// until the protector leaves its critical section; every other scheme
// returns at once.
func TestScanSeesLastIssuedSlot(t *testing.T) {
	layouts := []struct {
		name string
		// open registers the sessions and returns the protector, which
		// must hold id wantID, and the retirer.
		open   func(b smr.Backend) (protector, retirer *reclaim.Handle)
		wantID int
	}{
		{
			// The protector takes the first slot of a grown block; every
			// lower id is unregistered and the retirer recycles one.
			name:   "grown-block",
			wantID: prefixMaxThreads,
			open: func(b smr.Backend) (*reclaim.Handle, *reclaim.Handle) {
				hs := registerN(b, prefixMaxThreads+1)
				for _, h := range hs[:prefixMaxThreads] {
					h.Unregister()
				}
				return hs[prefixMaxThreads], b.Register()
			},
		},
		{
			// The protector recycles the highest id of the first block.
			name:   "recycled",
			wantID: prefixMaxThreads - 1,
			open: func(b smr.Backend) (*reclaim.Handle, *reclaim.Handle) {
				hs := registerN(b, prefixMaxThreads)
				for _, h := range hs[1:] {
					h.Unregister()
				}
				return b.Register(), hs[0]
			},
		},
	}
	for _, sch := range smr.Schemes() {
		if !publishesCells(sch) {
			continue
		}
		for _, lay := range layouts {
			t.Run(sch.String()+"/"+lay.name, func(t *testing.T) {
				arena, b, setGuard := prefixBackend(sch)
				protector, retirer := lay.open(b)
				if protector.ID() != lay.wantID {
					t.Fatalf("protector holds id %d, want %d", protector.ID(), lay.wantID)
				}

				target, _ := arena.Alloc()
				b.OnAlloc(target)
				var cell atomic.Uint64
				cell.Store(uint64(target))
				var freedTarget atomic.Bool
				setGuard(func(r mem.Ref) {
					if r.Unmarked() == target {
						freedTarget.Store(true)
					}
				})

				protector.BeginOp()
				if got := protector.Protect(0, &cell).Unmarked(); got != target {
					t.Fatalf("Protect returned %v, want %v", got, target)
				}
				cell.Store(uint64(mem.NilRef)) // unlink

				done := make(chan struct{})
				go func() {
					defer close(done)
					retirer.Retire(target)
					// Enough further retires to age EBR's epoch well past
					// its grace periods if the straggler were missed.
					for range 8 {
						ref, _ := arena.Alloc()
						b.OnAlloc(ref)
						retirer.Retire(ref)
					}
				}()
				select {
				case <-done:
				case <-time.After(50 * time.Millisecond):
					// Only a blocking Retire (URCU) is still waiting here.
				}
				if freedTarget.Load() {
					t.Errorf("node freed while session %d protected it", protector.ID())
				}
				protector.EndOp()
				<-done

				protector.Unregister()
				retirer.Unregister()
				b.Drain()
			})
		}
	}
}

// TestStatsFoldExact: Retired, Freed and Pending are exact when only the
// sessions at the top of the issued ids retire. In "wrapped" every one of
// them holds an id past the stripe count (4), so its counts land on
// wrapped stripes: sessions 0..3 stay idle and 4..7 retire 1, 2, 3 and 4
// nodes, filling every stripe. In "prefix" the count (3) is below the
// stripe count and only the last session retires, so a fold that stops
// one stripe before the count drops it.
func TestStatsFoldExact(t *testing.T) {
	layouts := []struct {
		name               string
		sessions, retirers int
	}{
		{"wrapped", 2 * prefixMaxThreads, prefixMaxThreads},
		{"prefix", prefixMaxThreads - 1, 1},
	}
	for _, sch := range smr.Schemes() {
		if !publishesCells(sch) {
			continue
		}
		for _, lay := range layouts {
			t.Run(sch.String()+"/"+lay.name, func(t *testing.T) {
				arena, b, setGuard := prefixBackend(sch)
				var freed atomic.Int64
				setGuard(func(mem.Ref) { freed.Add(1) })

				hs := registerN(b, lay.sessions)
				idle, active := hs[:lay.sessions-lay.retirers], hs[lay.sessions-lay.retirers:]
				retired := int64(0)
				for i, h := range active {
					for range i + 1 {
						ref, _ := arena.Alloc()
						b.OnAlloc(ref)
						h.Retire(ref)
						retired++
					}
				}
				for _, h := range active {
					h.Unregister() // final scan
				}

				s := b.Stats()
				if s.Retired != retired {
					t.Errorf("Retired = %d, want %d", s.Retired, retired)
				}
				if want := freed.Load(); s.Freed != want {
					t.Errorf("Freed = %d, want %d (frees the reclamation paths made)", s.Freed, want)
				}
				if want := s.Retired - s.Freed; s.Pending != want {
					t.Errorf("Pending = %d, want Retired-Freed = %d", s.Pending, want)
				}
				for _, h := range idle {
					h.Unregister()
				}
				b.Drain()
			})
		}
	}
}
