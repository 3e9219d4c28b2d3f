// Package mem simulates manual memory management inside a garbage-collected
// runtime. It is the substrate that makes a Go reproduction of Hazard Eras
// meaningful: in C++ the paper's schemes guard genuinely reusable memory,
// while in Go the collector would silently keep every node alive and no
// reclamation bug could ever be observed.
//
// The substitution works as follows (see DESIGN.md §1.1):
//
//   - Nodes live in slab arenas and are addressed by packed 64-bit Refs, not
//     Go pointers. A Ref carries a mark bit (the Harris list "logical delete"
//     bit that C++ steals from pointer alignment), a slot generation, and a
//     slot index.
//   - Free returns the slot to a lock-free freelist and bumps the slot's
//     generation; Alloc reuses freed slots, so memory is genuinely recycled
//     and the ABA problem is real.
//   - Dereferencing through Arena.Get validates the Ref's generation against
//     the slot's current generation (in checked mode), so a use-after-free by
//     a buggy reclamation scheme becomes a detected fault — the moral
//     equivalent of AddressSanitizer for this simulated heap.
//
// Every reclamation scheme in this repository allocates and frees through
// this package, which also gives all schemes an identical, constant-cost
// dereference so that throughput comparisons isolate the synchronization
// cost the paper is about.
package mem

import "fmt"

// Ref is a packed reference to an arena slot. Layout (LSB to MSB):
//
//	bit  0      mark bit (Harris logical-deletion tag)
//	bits 1..23  slot generation (23 bits, bumped on every Free)
//	bits 24..59 slot index (36 bits; index 0 is reserved as nil)
//	bits 60..63 size class (0 = the arena's typed slot class; 1..NumByteClasses
//	            address the byte-payload size-class ladder, see class.go)
//
// The class bits are carved from the top of what used to be a 40-bit index
// space: a class-0 Ref with index < 2^36 is bit-identical under both layouts,
// so every ref the typed arena ever handed out decodes unchanged (pinned by
// TestLegacyRefLayoutPinned).
//
// The zero Ref is the nil reference.
type Ref uint64

const (
	markBits  = 1
	genBits   = 23
	classBits = 4
	indexBits = 64 - markBits - genBits - classBits

	// MarkBit is the Harris mark bit, for code that must test it without
	// calling Marked (see smr.Ptr.Marked).
	MarkBit    Ref = 1
	genShift       = markBits
	genMask    Ref = ((1 << genBits) - 1) << genShift
	idxShift       = markBits + genBits
	classShift     = idxShift + indexBits

	// MaxIndex is the largest representable slot index (per class).
	MaxIndex = (1 << indexBits) - 1
	// NumClasses is the number of addressable size classes (class 0 is the
	// arena's typed slot class).
	NumClasses = 1 << classBits
	// GenModulus is the number of distinct generation values; generations
	// wrap modulo this value after ~8.4M reuses of a single slot.
	GenModulus = 1 << genBits
)

// NilRef is the null reference.
const NilRef Ref = 0

// MakeRef packs an index and generation into an unmarked class-0 Ref.
func MakeRef(index uint64, gen uint32) Ref {
	return Ref(index&MaxIndex)<<idxShift | (Ref(gen)<<genShift)&genMask
}

// MakeClassRef packs a size class, index and generation into an unmarked
// Ref. MakeClassRef(0, i, g) == MakeRef(i, g).
func MakeClassRef(class int, index uint64, gen uint32) Ref {
	return Ref(class&(NumClasses-1))<<classShift | MakeRef(index, gen)
}

// IsNil reports whether r refers to no slot. Index 0 is reserved as nil in
// every class and no ref with a class but no index is ever minted, so a
// single shift-compare covers all layouts — the class nibble rides along in
// the high bits and is zero exactly when the whole field is. The mark bit
// is ignored, so a marked nil — which never occurs in well-formed
// structures — is still nil.
func (r Ref) IsNil() bool { return r>>idxShift == 0 }

// Index extracts the slot index of a class-0 (typed arena) ref. It is a
// bare shift — the class nibble is zero for every ref the typed arena
// mints, so the typed hot paths pay no masking. For byte-class refs the
// shift alone would fold the class bits into the result: decode those with
// ClassIndex instead.
func (r Ref) Index() uint64 { return uint64(r >> idxShift) }

// ClassIndex extracts the slot index with the class nibble masked off —
// the correct decode for refs of any class, at the cost of the mask.
func (r Ref) ClassIndex() uint64 { return uint64(r>>idxShift) & MaxIndex }

// Class extracts the size class (0 for typed arena slots).
func (r Ref) Class() int { return int(r >> classShift) }

// Gen extracts the generation stamp carried by the reference.
func (r Ref) Gen() uint32 { return uint32((r & genMask) >> genShift) }

// Marked reports whether the Harris mark bit is set.
func (r Ref) Marked() bool { return r&MarkBit != 0 }

// WithMark returns r with the mark bit set.
func (r Ref) WithMark() Ref { return r | MarkBit }

// Unmarked returns r with the mark bit cleared. Schemes always publish and
// compare unmarked refs; structures store marked ones.
func (r Ref) Unmarked() Ref { return r &^ MarkBit }

// String renders the ref for diagnostics.
func (r Ref) String() string {
	if r.IsNil() {
		return "ref<nil>"
	}
	m := ""
	if r.Marked() {
		m = "*"
	}
	if c := r.Class(); c != 0 {
		return fmt.Sprintf("ref<c%d:%d.g%d%s>", c, r.ClassIndex(), r.Gen(), m)
	}
	return fmt.Sprintf("ref<%d.g%d%s>", r.Index(), r.Gen(), m)
}
