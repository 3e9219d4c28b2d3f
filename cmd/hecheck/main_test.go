package main

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/smr"
)

// TestDomainSuiteClean is the no-mutation half of the acceptance gate:
// every scheme must pass the shared-cell safety workload with zero oracle
// violations and zero arena faults across a handful of seeds.
func TestDomainSuiteClean(t *testing.T) {
	for _, sch := range smr.Schemes() {
		for seed := uint64(1); seed <= 3; seed++ {
			if vs := runDomainSeed(sch, nil, seed); len(vs) != 0 {
				t.Errorf("%s seed=%d: %v", sch, seed, vs)
			}
		}
	}
}

// TestDomainSuiteCleanAmortized runs the same workload at every scheme's
// default scan trigger (-scan-threshold 0) instead of a scan on every
// retire, with enough writer operations that the writer scans mid-run.
func TestDomainSuiteCleanAmortized(t *testing.T) {
	defer func(at, ops int) { *flagScanAt, *flagOps = at, ops }(*flagScanAt, *flagOps)
	*flagScanAt, *flagOps = 0, 20
	for _, sch := range smr.Schemes() {
		for seed := uint64(1); seed <= 3; seed++ {
			if vs := runDomainSeed(sch, nil, seed); len(vs) != 0 {
				t.Errorf("%s seed=%d: %v", sch, seed, vs)
			}
		}
	}
}

// TestStructSuiteSmoke runs a spread of (structure, scheme) pairs through
// the bounded linearizability workload. The full matrix runs in CI via the
// hecheck binary; this keeps `go test ./...` fast while still exercising
// all four structures and four distinct schemes.
func TestStructSuiteSmoke(t *testing.T) {
	pairs := []struct {
		structName string
		scheme     smr.Scheme
	}{
		{"list", smr.HE},
		{"map", smr.URCU},
		{"queue", smr.EBR},
		{"stack", smr.RC},
	}
	for _, p := range pairs {
		for seed := uint64(1); seed <= 2; seed++ {
			if vs := runStructSeed(p.scheme, p.structName, seed); len(vs) != 0 {
				t.Errorf("%s/%s seed=%d: %v", p.structName, p.scheme, seed, vs)
			}
		}
	}
}

// TestMutationKillCheck is the acceptance-criteria mutation gate: with a
// deliberately broken scheme variant armed, the domain suite must
// deterministically report a freed-while-protected or generation-mismatch
// violation within the bounded seed budget, and replaying the violating
// seed must reproduce the identical report.
func TestMutationKillCheck(t *testing.T) {
	cases := []struct {
		name   string
		scheme smr.Scheme
	}{
		{"skip-publish", smr.HE},
		{"invert-lifespan", smr.HE},
		{"short-scan", smr.HE},
		{"hyaline-early-dec", smr.Hyaline},
		{"wfe-skip-validate", smr.WFE},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := parseMutation(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if !spec.schemes[tc.scheme] {
				t.Fatalf("spec %s does not target scheme %s", tc.name, tc.scheme)
			}
			var killedSeed uint64
			var first []string
			for seed := uint64(1); seed <= 8; seed++ {
				if vs := runDomainSeed(tc.scheme, spec, seed); len(vs) != 0 {
					killedSeed, first = seed, vs
					break
				}
			}
			if killedSeed == 0 {
				t.Fatalf("mutation %s survived 8 seeds — oracles failed the kill-check", tc.name)
			}
			found := false
			for _, v := range first {
				if strings.Contains(v, "freed-while-protected") || strings.Contains(v, "reclaimed slot") {
					found = true
				}
			}
			if !found {
				t.Fatalf("mutation %s detected but not by a safety oracle: %v", tc.name, first)
			}
			replay := runDomainSeed(tc.scheme, spec, killedSeed)
			if len(replay) != len(first) {
				t.Fatalf("replay of seed %d not deterministic: %d violations vs %d", killedSeed, len(replay), len(first))
			}
			for i := range replay {
				if replay[i] != first[i] {
					t.Fatalf("replay of seed %d diverged:\n  first:  %s\n  replay: %s", killedSeed, first[i], replay[i])
				}
			}
		})
	}
}

// TestFilterFlagsRejectUnknownNames pins the -scheme and -struct parsers:
// every entry of a comma-separated filter must resolve, and the error names
// the entry that did not — an unknown name next to a valid one must not be
// silently dropped.
func TestFilterFlagsRejectUnknownNames(t *testing.T) {
	cases := []struct {
		flag, spec string
		n          int    // entries resolved on success
		bad        string // offending entry on failure
	}{
		{"scheme", "HE,hyaline", 2, ""},
		{"scheme", "hyaline-1r, WFE", 2, ""},
		{"scheme", "HE,hyalin", 0, "hyalin"},
		{"scheme", "HE,", 0, `""`},
		{"struct", "", 4, ""},
		{"struct", "list,stack", 2, ""},
		{"struct", "list,lsit", 0, "lsit"},
		{"struct", "bst", 0, "bst"},
	}
	for _, tc := range cases {
		var n int
		var err error
		if tc.flag == "scheme" {
			var got []smr.Scheme
			got, err = bench.ParseSchemes(tc.spec)
			n = len(got)
		} else {
			var got []string
			got, err = parseStructs(tc.spec)
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
