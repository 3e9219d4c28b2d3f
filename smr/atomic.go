package smr

import (
	"sync/atomic"

	"repro/internal/mem"
)

// Ptr is a typed reference to a T node. The zero value is nil. Ptr carries
// the Harris mark bit (logical-deletion flag) of the word it was loaded
// from; Unmarked strips it for dereference, WithMark sets it for the
// logical-delete CAS.
//
// A Ptr is only as alive as the protection that produced it: one obtained
// from Atomic.Load is dereferenceable (Domain.Deref) until the guard's
// EndOp; one obtained from Peek is a snapshot for validation and CAS
// expectation only.
type Ptr[T any] struct{ ref Ref }

// PtrOf wraps a raw Ref as a typed Ptr without any protection proof —
// interop with the untyped layer (poisoners, checkers). Prefer the typed
// surface.
func PtrOf[T any](r Ref) Ptr[T] { return Ptr[T]{r} }

// Ref unwraps the packed reference — the currency of Publish and Retire.
func (p Ptr[T]) Ref() Ref { return p.ref }

// IsNil reports whether p is null (ignoring the mark bit).
func (p Ptr[T]) IsNil() bool { return p.ref.Unmarked().IsNil() }

// Marked reports the Harris mark bit. It tests the bit itself rather than
// calling mem.Ref.Marked: a structure's instantiation of this method is
// compiled in a package that does not import mem, and there the compiler
// does not inline mem.Ref's methods, so every traversal step would make
// the call.
func (p Ptr[T]) Marked() bool { return p.ref&mem.MarkBit != 0 }

// Unmarked returns p with the mark bit cleared.
func (p Ptr[T]) Unmarked() Ptr[T] { return Ptr[T]{p.ref.Unmarked()} }

// WithMark returns p with the mark bit set. Like Marked it sets the bit
// itself, so a structure's logical-delete CAS makes no call for it.
func (p Ptr[T]) WithMark() Ptr[T] { return Ptr[T]{p.ref | mem.MarkBit} }

// Atomic is a typed atomic link word holding a Ptr[T] (the paper's
// per-node next pointer, or a structure's head/tail anchor). The zero
// value holds the nil Ptr.
type Atomic[T any] struct{ v atomic.Uint64 }

// Load returns *a under protection index i of g's session — the paper's
// get_protected(tid, i, &a): the scheme publishes an era (HE/IBR) or the
// loaded pointer (HP) before returning, so the referent cannot be
// reclaimed until the guard's EndOp. A nil (marked or not) comes back
// unpublished under HP, HE and WFE: there is nothing to dereference, and
// index i keeps whatever it protected before. Panics outside an operation
// window, because the protection would be silently worthless there.
func (a *Atomic[T]) Load(g *Guard, index int) Ptr[T] {
	if g.state != guardInOp {
		panic("smr: Atomic.Load" + msgNotInOp)
	}
	return Ptr[T]{g.h.Protect(index, &a.v)}
}

// Peek returns *a as an unprotected snapshot: valid for identity
// comparison (revalidating a traversal) and as a CAS expectation, not for
// dereference. Quiescent phases may also Peek+DerefQuiescent.
func (a *Atomic[T]) Peek() Ptr[T] { return Ptr[T]{mem.Ref(a.v.Load())} }

// Store unconditionally sets *a — initialization and quiescent resets.
func (a *Atomic[T]) Store(p Ptr[T]) { a.v.Store(uint64(p.ref)) }

// CompareAndSwap installs new if *a still holds old. This is the writers'
// linking/unlinking primitive; the mark bit participates in the
// comparison, so a concurrent logical delete fails the CAS.
func (a *Atomic[T]) CompareAndSwap(old, new Ptr[T]) bool {
	return a.v.CompareAndSwap(uint64(old.ref), uint64(new.ref))
}

// Bytes is a reference to a variable-size payload block in the arena's
// size-class space (WithByteValues). The zero value is nil.
type Bytes struct{ ref Ref }

// BytesOf wraps a raw Ref as a Bytes reference (interop; no protection
// proof).
func BytesOf(r Ref) Bytes { return Bytes{r} }

// Ref unwraps the packed reference.
func (b Bytes) Ref() Ref { return b.ref }

// IsNil reports whether b is null.
func (b Bytes) IsNil() bool { return b.ref.IsNil() }

// AtomicBytes is an atomic value cell that stores either a payload
// reference (byte-value mode — readers protect the payload through it
// before dereferencing) or an immediate value word (word mode). The two
// sets of accessors never mix on one cell.
type AtomicBytes struct{ v atomic.Uint64 }

// Load returns the payload reference under protection index i of g's
// session, with the same window discipline as Atomic.Load.
func (a *AtomicBytes) Load(g *Guard, index int) Bytes {
	if g.state != guardInOp {
		panic("smr: AtomicBytes.Load" + msgNotInOp)
	}
	return Bytes{g.h.Protect(index, &a.v)}
}

// Peek returns the payload reference as an unprotected snapshot.
func (a *AtomicBytes) Peek() Bytes { return Bytes{mem.Ref(a.v.Load())} }

// Store sets the cell to a payload reference (pre-publication init).
func (a *AtomicBytes) Store(b Bytes) { a.v.Store(uint64(b.ref)) }

// StoreWord sets the cell to an immediate value word (word mode).
func (a *AtomicBytes) StoreWord(v uint64) { a.v.Store(v) }

// LoadWord reads the immediate value word (word mode; the word is
// immutable after publication, so no protection is involved).
func (a *AtomicBytes) LoadWord() uint64 { return a.v.Load() }
