package bench

import (
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/hp"
	"repro/internal/ibr"
	"repro/internal/reclaim"
	"repro/smr"
)

// Scheme pairs a display name with its domain factory. The name labels
// result rows and, under an Env with a hub, the scheme's obs domain, so
// parameterized variants (HE-R1, HE-k10) stay distinguishable.
type Scheme struct {
	Name string
	Make smr.Factory
}

// Of returns the harness entry for a registered smr scheme.
func Of(s smr.Scheme) Scheme { return Scheme{s.String(), s.Factory()} }

// schemesOf maps registered schemes to harness entries, in order.
func schemesOf(ss ...smr.Scheme) []Scheme {
	out := make([]Scheme, len(ss))
	for i, s := range ss {
		out[i] = Of(s)
	}
	return out
}

// AllSchemes is the full roster for the extended comparisons: every scheme
// in the smr registry. Plain (non-robust) hyaline rides along: it is safe —
// it only loses the stalled-reader memory bound — and keeping it in the
// roster keeps the unbounded side of the robustness A/B under the same
// suites.
func AllSchemes() []Scheme { return schemesOf(smr.Schemes()...) }

// ParseSchemes resolves a comma-separated list of scheme names against the
// smr registry. Every entry must name a scheme; the error names the first
// one that does not.
func ParseSchemes(spec string) ([]smr.Scheme, error) {
	var out []smr.Scheme
	for _, name := range strings.Split(spec, ",") {
		s, err := smr.ParseScheme(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// The parameterized ablation variants below need scheme-specific options,
// so they are built here rather than registered in smr.

// HEk returns Hazard Eras with the §3.4 k-advance option.
func HEk(k int) Scheme {
	return Scheme{"HE-k" + strconv.Itoa(k), func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return core.New(a, c, core.WithAdvanceEvery(k))
	}}
}

// HPr returns Hazard Pointers with a custom scan threshold (R factor).
func HPr(r int) Scheme {
	return Scheme{"HP-R" + strconv.Itoa(r), func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return hp.New(a, c, hp.WithScanThreshold(r))
	}}
}

// EveryRetire returns s with the paper's Algorithm 3 scan trigger, a scan
// on every retire (SetScanThreshold(1)), in place of the default rule of
// one scan per ScanR·issued·Slots retires.
func EveryRetire(s Scheme) Scheme {
	mk := s.Make
	return Scheme{s.Name, func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		d := mk(a, c)
		if t, ok := d.(interface{ SetScanThreshold(int) }); ok {
			t.SetScanThreshold(1)
		}
		return d
	}}
}

// HEr returns Hazard Eras with amortized batch scanning: a thread scans
// once it has retired r*issued*Slots objects since its last scan (this
// repo's generalization of HP's §3.1 R factor to eras; see
// reclaim.Config.ScanR).
func HEr(r int) Scheme {
	return Scheme{"HE-R" + strconv.Itoa(r), func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		c.ScanR = r
		return core.New(a, c)
	}}
}

// IBRr returns 2GE-IBR with the same amortized batch scanning as HEr.
func IBRr(r int) Scheme {
	return Scheme{"IBR-R" + strconv.Itoa(r), func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		c.ScanR = r
		return ibr.New(a, c)
	}}
}
