package main

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/smr"
)

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
			var got []bench.Structure
			got, err = bench.ParseStructs(tc.spec)
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
