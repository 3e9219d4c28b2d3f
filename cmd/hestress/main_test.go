package main

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/smr"
)

// TestRCExclusionSetPinned is a regression pin on the shared RC exclusion
// declaration (bench.RCUnsafe) over this driver's structure roster: Valois
// slot-level reference counting is re-usage-only on structures with frozen
// interior cells (list-shaped traversals, paper §1 on [28]) and on the
// wait-free queue, whose helping protocol hands descriptor refs across
// threads through the announcement array (FAULT-WFQ-RC-001, reproduced as
// a bounded schedule in internal/wfqueue). Removing any of these markings
// would re-admit a known-unsound combination into the stress matrix.
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
	targets := stressTargets()
	if len(targets) != len(want) {
		t.Fatalf("stress roster has %d targets, want %d", len(targets), len(want))
	}
	for _, tgt := range targets {
		unsafe, ok := want[tgt.name]
		if !ok {
			t.Errorf("unexpected stress target %q", tgt.name)
			continue
		}
		if got := bench.RCUnsafe(tgt.name); got != unsafe {
			t.Errorf("target %q: RCUnsafe = %v, want %v", tgt.name, got, unsafe)
		}
	}
	if !bench.RCUnsafe("wfq") {
		t.Fatal("wfq must stay RC-excluded (FAULT-WFQ-RC-001)")
	}
}

// TestRosterFlagsRejectUnknownNames pins the -struct and -scheme parsers:
// every entry of a comma-separated list must resolve, and the error names
// the entry that did not — an unknown name next to a valid one must not be
// silently dropped.
func TestRosterFlagsRejectUnknownNames(t *testing.T) {
	cases := []struct {
		flag, spec string
		n          int    // entries resolved on success
		bad        string // offending entry on failure
	}{
		{"struct", "all", 7, ""},
		{"struct", "list", 1, ""},
		{"struct", "list, wfq", 2, ""},
		{"struct", "list,lsit", 0, "lsit"},
		{"struct", "", 0, `""`},
		{"scheme", "HE,hyaline", 2, ""},
		{"scheme", "RC,NONE", 2, ""},
		{"scheme", "HE,hyalin", 0, "hyalin"},
		{"scheme", "he", 0, "he"},
	}
	for _, tc := range cases {
		var n int
		var err error
		if tc.flag == "struct" {
			var got []stressTarget
			got, err = parseStructs(tc.spec)
			n = len(got)
		} else {
			var got []smr.Scheme
			got, err = bench.ParseSchemes(tc.spec)
			n = len(got)
		}
		if tc.bad == "" {
			if err != nil || n != tc.n {
				t.Errorf("-%s %q: got %d entries, err %v; want %d entries", tc.flag, tc.spec, n, err, tc.n)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("-%s %q: err %v, want one naming %s", tc.flag, tc.spec, err, tc.bad)
		}
	}
}
