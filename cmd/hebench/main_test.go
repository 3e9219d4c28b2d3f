package main

import (
	"strings"
	"testing"
)

// TestGridFlagsRejectOutOfRange pins the -threads, -sizes and -updates
// parsers: a size or thread count below 1 and an update percentage above
// 100 are errors naming the flag and the entry, not a panic inside an
// experiment (a size of 0 used to divide by zero drawing a key).
func TestGridFlagsRejectOutOfRange(t *testing.T) {
	cases := []struct {
		name, threads, sizes, updates string
		bad                           string // "" when the grid is valid
	}{
		{"defaults", "1,2,4,8", "100,1000,10000", "0,10,100", ""},
		{"size zero", "1", "0", "0", `-sizes entry "0"`},
		{"size negative", "1", "100,-5", "0", `-sizes entry "-5"`},
		{"threads zero", "0", "100", "0", `-threads entry "0"`},
		{"threads zero in list", "1,0", "100", "0", `-threads entry "0"`},
		{"updates above 100", "1", "100", "10,101", `-updates entry "101"`},
		{"updates negative", "1", "100", "-1", `-updates entry "-1"`},
		{"not a number", "1", "1k", "0", `-sizes entry "1k"`},
	}
	for _, tc := range cases {
		th, sz, upd, err := parseGrid(tc.threads, tc.sizes, tc.updates)
		if tc.bad == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			} else if len(th) != 4 || len(sz) != 3 || len(upd) != 3 || sz[2] != 10000 || upd[2] != 100 {
				t.Errorf("%s: parsed %v %v %v", tc.name, th, sz, upd)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted -threads %q -sizes %q -updates %q", tc.name, tc.threads, tc.sizes, tc.updates)
			continue
		}
		if !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.bad)
		}
	}
}
