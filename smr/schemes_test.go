package smr_test

import (
	"testing"

	"repro/smr"
)

// TestSchemeRegistryPinned pins the scheme table every roster is derived
// from: names are unique, ParseScheme inverts String, and each row's name
// is the name its backend reports — the string that labels every obs
// series and every driver output line, so a row whose display name and
// backend name drifted apart would split one scheme's telemetry in two.
// SchemeNames lists the same names in the same order.
func TestSchemeRegistryPinned(t *testing.T) {
	seen := map[string]smr.Scheme{}
	names := smr.SchemeNames()
	if len(names) != len(smr.Schemes()) {
		t.Fatalf("SchemeNames has %d entries, Schemes %d", len(names), len(smr.Schemes()))
	}
	for i, s := range smr.Schemes() {
		name := s.String()
		if names[i] != name {
			t.Errorf("SchemeNames()[%d] = %q, want %q", i, names[i], name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("schemes %d and %d share the name %q", prev, s, name)
		}
		seen[name] = s
		if got, err := smr.ParseScheme(name); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", name, got, err, s)
		}
		d := smr.New[node](s, smr.Config{MaxThreads: 2, Slots: 1})
		if got := d.Name(); got != name {
			t.Errorf("scheme %q: backend Name() = %q", name, got)
		}
	}
	if _, err := smr.ParseScheme("hyalin"); err == nil {
		t.Error("ParseScheme accepted an unknown name")
	}
}
