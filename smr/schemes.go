package smr

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ebr"
	"repro/internal/hp"
	"repro/internal/hyaline"
	"repro/internal/ibr"
	"repro/internal/leak"
	"repro/internal/rc"
	"repro/internal/urcu"
	"repro/internal/wfe"
)

// This file is the scheme registry: the one place a reclamation scheme's
// name and factory are written down. Every roster in the repository — the
// benchmark harness, the stress and schedule-check drivers, their -scheme
// flags and help text — is derived from the table below, so adding a
// scheme is one internal package plus one constant and one row here.

// Scheme names a reclamation algorithm for New.
type Scheme int

const (
	// HE is Hazard Eras (the paper's Algorithms 1-3).
	HE Scheme = iota
	// HEMinMax is Hazard Eras with §3.4 min/max era publication (deep
	// traversals publish at most two eras total).
	HEMinMax
	// HP is the Hazard Pointers baseline (Michael 2004).
	HP
	// EBR is the epoch-based-reclamation baseline.
	EBR
	// URCU is the Grace-Version Userspace-RCU baseline (blocking retires).
	URCU
	// IBR is 2GE interval-based reclamation, the HE follow-on.
	IBR
	// Hyaline is robust Hyaline-1R (Nikolaev & Ravindran 2019):
	// snapshot-free reclamation by per-batch reference-counted handoff,
	// with the birth-era filter that bounds memory under stalled readers.
	Hyaline
	// HyalinePlain is Hyaline without the robustness filter: every batch
	// is handed to every active session, so one stalled reader pins all
	// subsequent retirements (EBR's failure mode).
	HyalinePlain
	// WFE is Wait-Free Eras (Nikolaev & Ravindran 2020): Hazard Eras with
	// a bounded Protect retry loop backed by an announce/help protocol, so
	// readers are wait-free rather than lock-free.
	WFE
	// RC is the Valois-style reference-counting baseline (Table 1's first
	// row). Slot-level counts are unsound on structures whose deleted
	// cells stay frozen (the Harris list and everything built on it).
	RC
	// None is the no-reclamation control: Retire leaks until Drain. It is
	// the throughput ceiling the other schemes' overhead is measured
	// against.
	None
)

// schemeRow is one registry entry: the display name (equal to the
// backend's Name, so it labels stats, obs series and driver output
// consistently) and the backend constructor.
type schemeRow struct {
	name string
	make Factory
}

var schemeTable = [...]schemeRow{
	HE:       {"HE", func(a Allocator, c Config) Backend { return core.New(a, c) }},
	HEMinMax: {"HE-minmax", func(a Allocator, c Config) Backend { return core.New(a, c, core.WithMinMax(true)) }},
	HP:       {"HP", func(a Allocator, c Config) Backend { return hp.New(a, c) }},
	EBR:      {"EBR", func(a Allocator, c Config) Backend { return ebr.New(a, c) }},
	URCU:     {"URCU", func(a Allocator, c Config) Backend { return urcu.New(a, c) }},
	IBR:      {"IBR", func(a Allocator, c Config) Backend { return ibr.New(a, c) }},
	Hyaline:  {"hyaline-1r", func(a Allocator, c Config) Backend { return hyaline.New(a, c) }},
	HyalinePlain: {"hyaline", func(a Allocator, c Config) Backend {
		return hyaline.New(a, c, hyaline.WithRobust(false))
	}},
	WFE:  {"WFE", func(a Allocator, c Config) Backend { return wfe.New(a, c) }},
	RC:   {"RC", func(a Allocator, c Config) Backend { return rc.New(a, c) }},
	None: {"NONE", func(a Allocator, c Config) Backend { return leak.New(a, c) }},
}

// Schemes returns every registered scheme in declaration order.
func Schemes() []Scheme {
	out := make([]Scheme, len(schemeTable))
	for i := range out {
		out[i] = Scheme(i)
	}
	return out
}

// SchemeNames returns every registered scheme's name in declaration order.
func SchemeNames() []string {
	names := make([]string, len(schemeTable))
	for i, r := range schemeTable {
		names[i] = r.name
	}
	return names
}

// ParseScheme returns the scheme whose String is name.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range Schemes() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (want one of %s)", name, strings.Join(SchemeNames(), ", "))
}

func (s Scheme) valid() bool { return s >= 0 && int(s) < len(schemeTable) }

// String returns the display name used in stats and metrics.
func (s Scheme) String() string {
	if !s.valid() {
		return "unknown"
	}
	return schemeTable[s].name
}

// Factory returns the backend constructor for the scheme, for use with
// NewWith or any structure's New.
func (s Scheme) Factory() Factory {
	if !s.valid() {
		panic("smr: unknown Scheme")
	}
	return schemeTable[s].make
}
