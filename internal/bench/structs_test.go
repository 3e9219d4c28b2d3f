package bench

import (
	"testing"

	"repro/smr"
)

// TestRCExclusionSetPinned is a regression pin on the structure table's RC
// markings: Valois slot-level reference counting is re-usage-only on
// structures with frozen interior cells (list-shaped traversals, paper §1
// on [28]) and on the wait-free queue, whose helping protocol hands
// descriptor refs across threads through the announcement array
// (FAULT-WFQ-RC-001, reproduced as a bounded schedule in internal/wfqueue).
// Removing any of these markings would re-admit a known-unsound
// combination into the stress matrix.
func TestRCExclusionSetPinned(t *testing.T) {
	want := map[string]bool{
		"list":     true,
		"map":      true,
		"queue":    false,
		"stack":    false,
		"bst":      true,
		"wfq":      true,
		"skiplist": true,
	}
	rows := Structures()
	if len(rows) != len(want) {
		t.Fatalf("structure table has %d rows, want %d", len(rows), len(want))
	}
	for _, row := range rows {
		unsafe, ok := want[row.Name]
		if !ok {
			t.Errorf("unexpected structure %q", row.Name)
			continue
		}
		if got := !row.Admits(smr.RC); got != unsafe {
			t.Errorf("structure %q: RC excluded = %v, want %v", row.Name, got, unsafe)
		}
	}
	if Struct("wfq").Admits(smr.RC) {
		t.Fatal("wfq must stay RC-excluded (FAULT-WFQ-RC-001)")
	}
}
