package mem

import "sync/atomic"

// Header is the per-slot metadata block maintained by the arena and consumed
// by the reclamation schemes. It is the Go analogue of the fields the paper
// requires the tracked type T to carry ("the type T must have the members
// newEra and delEra, both of type uint64", §3) plus the bookkeeping the
// other baseline schemes need. It lives in its slab's metadata array,
// beside the value rather than inside T: no traversal reads it, so the
// values a walk touches stay packed together.
//
// BirthEra and RetireEra are deliberately NOT atomic, exactly as in the
// paper: "Neither of these variables needs to be atomic because they are
// only read after being placed in a retired list, by the thread that put
// them there" — and BirthEra is written before the object is published.
type Header struct {
	// gen is the slot generation, bumped on every Free. Checked dereference
	// compares it against the generation carried in the Ref.
	gen atomic.Uint32

	// BirthEra is the paper's newEra: the eraClock value when the object was
	// created, written before the object becomes shared.
	BirthEra uint64

	// RetireEra is the paper's delEra: the eraClock value when the object
	// was retired, written by the retiring thread after unlinking.
	RetireEra uint64

	// RC is the acquisition count for the reference-counting baseline. It is
	// type-stable: the slot (and therefore this counter) is never returned
	// to the Go heap, which is the precondition under which Valois-style
	// counting is sound.
	RC atomic.Int64

	// Retired marks logically deleted objects for the reference-counting
	// baseline (the releaser that sees RC==0 on a retired object frees it).
	Retired atomic.Bool
}

// Gen returns the current slot generation, truncated to the width a Ref
// can carry — all generation comparisons happen modulo GenModulus.
func (h *Header) Gen() uint32 { return h.gen.Load() % GenModulus }

// resetForAlloc clears scheme state for a freshly (re)allocated slot. RC is
// deliberately preserved: a Valois-style stale acquirer may still hold a
// transient +1 on a recycled slot that it will undo after validation, and
// zeroing the counter here would corrupt that accounting.
func (h *Header) resetForAlloc() {
	h.BirthEra = 0
	h.RetireEra = 0
	// Only the reference-counting baseline ever sets Retired, so on every
	// other scheme's alloc path the load spares an unconditional atomic
	// store (a locked op on amd64) per allocation.
	if h.Retired.Load() {
		h.Retired.Store(false)
	}
}
