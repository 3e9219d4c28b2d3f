package bst_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/bst"
	"repro/internal/schedtest"
	"repro/smr"
)

// TestScheduleReaderAnchorsInUnlinkedNodes replays, under a deterministic
// schedule, the interleaving in which a reader's anchors lie inside nodes
// that are already unlinked. The tree is J(bit1){I(bit2){leaf0, leaf4},
// leaf2} with byte values. A reader of key 0 descends J → I → leaf0 while
// the one writer runs Remove(2) (unlinks J) and then Remove(0) (unlinks I
// and retires leaf0 and its payload). With the writer gates and the
// reader's descent gates alternating, the reader reaches leaf0 through
// J.Child[0] == I and I.Child[0] == leaf0 after J is unlinked, and parks
// before it protects the payload while Remove(0) retires it. Neither edge
// is rewritten by an unlink, so without the mark on unlinked nodes' edges
// both re-checks pass and the payload is read after its free: under HP the
// checked arena faults. The domain scans on every retire.
//
// There is one writer, so Remove(2) precedes Remove(0) in every schedule.
func TestScheduleReaderAnchorsInUnlinkedNodes(t *testing.T) {
	sizer := func(key uint64) int { return 32 }
	for _, s := range smr.Schemes() {
		if !bench.Struct("bst").Admits(s) {
			continue
		}
		t.Run(s.String(), func(t *testing.T) {
			mk := func(a smr.Allocator, c smr.Config) smr.Backend {
				d := s.Factory()(a, c)
				d.(interface{ SetScanThreshold(int) }).SetScanThreshold(1)
				return d
			}
			tr := bst.New(mk, bst.WithChecked(true), bst.WithMaxThreads(4), bst.WithByteValues(sizer))
			setup := tr.Register()
			for _, k := range []uint64{0, 4, 2} {
				tr.Insert(setup, k, ^k)
			}
			setup.Unregister()
			if tr.Depth() != 3 {
				t.Fatalf("setup built depth %d, want 3 (J{I{leaf0, leaf4}, leaf2})", tr.Depth())
			}
			reader, writer := tr.Register(), tr.Register()

			var (
				readerFirst bool
				got         uint64
				found       bool
			)
			err := schedtest.Run(schedtest.Config{
				Seed:      2, // starts the reader: the replay needs it at J first
				SwitchPct: 100,
				Targeted:  []schedtest.Kind{schedtest.PointCAS},
			}, func() {
				readerFirst = true
				got, found = tr.Get(reader, 0)
			}, func() {
				if !readerFirst {
					t.Error("writer ran first: the seed no longer starts the reader")
				}
				tr.Remove(writer, 2)
				tr.Remove(writer, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
			if found && got != ^uint64(0) {
				t.Fatalf("Get(0) = %#x, want %#x", got, ^uint64(0))
			}
			reader.Unregister()
			writer.Unregister()
			tr.Drain()
			if st := tr.Arena().Stats(); st.Faults != 0 || st.Live != 0 {
				t.Fatalf("arena after drain: %+v", st)
			}
		})
	}
}
