package bench

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseValSizer parses the -valsize flag grammar into a per-key payload
// sizer:
//
//	""  or "0"   off (word values, no payload allocation)
//	"N"          fixed N-byte payload for every key
//	"zipf:N"     skewed sizes in [8, N]: most keys draw small payloads,
//	             a heavy tail draws up to N — a deterministic, per-key
//	             approximation of a zipf size distribution, so repeated
//	             runs (and re-inserts of the same key) are reproducible
//
// The sizer must be deterministic per key: benchmark cells remove and
// re-insert the same keys, and a size that changed between incarnations
// would conflate allocator class churn with reclamation cost.
func ParseValSizer(spec string) (func(key uint64) int, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "0" {
		return nil, nil
	}
	if rest, ok := strings.CutPrefix(spec, "zipf:"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 8 {
			return nil, fmt.Errorf("valsize: bad zipf bound %q (want an integer >= 8)", rest)
		}
		return ZipfSizer(n), nil
	}
	n, err := strconv.Atoi(spec)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("valsize: bad size %q (want 0, a positive byte count, or zipf:N)", spec)
	}
	fixed := n
	return func(uint64) int { return fixed }, nil
}

// ZipfSizer returns a deterministic per-key sizer with a zipf-like shape:
// the key is mixed through SplitMix64's finalizer and the number of leading
// one-bits of the mix picks an octave, so roughly half the keys land in the
// smallest octave, a quarter in the next, and so on up to max. Sizes span
// [8, max].
func ZipfSizer(max int) func(key uint64) int {
	return func(key uint64) int {
		z := key + 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		// Each consecutive set bit halves the remaining probability mass:
		// octave o is drawn with probability 2^-(o+1).
		octave := 0
		for z&1 == 1 && octave < 16 {
			octave++
			z >>= 1
		}
		size := max >> octave
		if size < 8 {
			size = 8
		}
		return size
	}
}
