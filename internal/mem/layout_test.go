package mem

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

// node has the shape of list.Node (key, value ref, next link: 24 bytes),
// the arena's main tenant.
type node struct {
	key  uint64
	val  atomic.Uint64
	next atomic.Uint64
}

// combinedSlot is the single-array slot layout a slab used to hold: header,
// freelist link and value in one cell. SlotBytes still reports its size, so
// pending-bytes accounting and the monitor's budget read as they did.
type combinedSlot[T any] struct {
	hdr      Header
	nextFree atomic.Uint64
	val      T
}

var (
	sinkNode   *node
	sinkHeader *Header
)

// checkLayout allocates n slots of an unchecked arena and asserts the
// split layout: the values of consecutive indices sit Sizeof(T) apart in
// one array, and no slot's Header points into that array.
func checkLayout[T any](t *testing.T, n int) {
	t.Helper()
	a := NewArena[T]()
	refs := make([]Ref, n)
	for i := range refs {
		refs[i], _ = a.Alloc()
	}
	size := unsafe.Sizeof(*new(T))
	for i := 1; i < n; i++ {
		if refs[i].Index() != refs[i-1].Index()+1 {
			t.Fatalf("fresh refs %v, %v are not consecutive", refs[i-1], refs[i])
		}
		prev := uintptr(unsafe.Pointer(a.Get(refs[i-1])))
		if got := uintptr(unsafe.Pointer(a.Get(refs[i]))) - prev; got != size {
			t.Fatalf("values of indices %d and %d are %d bytes apart, want %d",
				refs[i-1].Index(), refs[i].Index(), got, size)
		}
	}
	// refs[0] is index 1 of slab 0, so the value array spans slabSize
	// values from one value below it.
	base := uintptr(unsafe.Pointer(a.Get(refs[0]))) - uintptr(refs[0].Index())*size
	end := base + slabSize*size
	for _, ref := range refs {
		if h := uintptr(unsafe.Pointer(a.Header(ref))); h >= base && h < end {
			t.Fatalf("Header(%v) at %#x lies in the value array [%#x, %#x)", ref, h, base, end)
		}
	}
}

func TestSlabKeepsValuesApartFromMetadata(t *testing.T) {
	t.Run("node", func(t *testing.T) { checkLayout[node](t, 64) })
	t.Run("payload", func(t *testing.T) { checkLayout[payload](t, 64) })
	t.Run("3B", func(t *testing.T) { checkLayout[[3]byte](t, 64) })
}

// TestSlotBytesUnchanged pins SlotBytes at the combined slot's size, 72
// for a list node, so splitting the slab moves no byte accounting.
func TestSlotBytesUnchanged(t *testing.T) {
	if got := NewArena[node]().SlotBytes(); got != 72 {
		t.Fatalf("SlotBytes for a 24-byte node = %d, want 72", got)
	}
	if got, want := NewArena[node]().SlotBytes(), unsafe.Sizeof(combinedSlot[node]{}); got != want {
		t.Fatalf("node: SlotBytes = %d, combined slot %d", got, want)
	}
	if got, want := NewArena[payload]().SlotBytes(), unsafe.Sizeof(combinedSlot[payload]{}); got != want {
		t.Fatalf("payload: SlotBytes = %d, combined slot %d", got, want)
	}
	if got, want := NewArena[uint64]().SlotBytes(), unsafe.Sizeof(combinedSlot[uint64]{}); got != want {
		t.Fatalf("uint64: SlotBytes = %d, combined slot %d", got, want)
	}
}

// TestHotPathsAllocateNothing: the typed alloc, free and dereference paths
// build their slot views in registers; a view that escaped to the heap
// would cost an allocation per call. Each round allocates three magazines'
// worth, so refill from and spill to the shared freelist run too.
func TestHotPathsAllocateNothing(t *testing.T) {
	for _, checked := range []bool{false, true} {
		a := NewArena[node](Checked[node](checked),
			WithPoison[node](func(n *node) { n.key = 0xDEAD }))
		refs := make([]Ref, 3*MagazineSize)
		for i := range refs {
			refs[i], _ = a.AllocAt(0)
		}
		for _, ref := range refs {
			a.FreeAt(0, ref)
		}
		held, _ := a.Alloc()
		for _, tc := range []struct {
			name string
			fn   func()
		}{
			{"AllocAt+FreeAt", func() {
				for i := range refs {
					refs[i], _ = a.AllocAt(1)
				}
				for _, ref := range refs {
					a.FreeAt(1, ref)
				}
			}},
			{"AllocAt+FreeBatchAt", func() {
				for i := range refs {
					refs[i], _ = a.AllocAt(1)
				}
				a.FreeBatchAt(1, refs)
			}},
			{"Alloc+Free", func() {
				ref, _ := a.Alloc()
				a.Free(ref)
			}},
			{"Get", func() { sinkNode = a.Get(held) }},
			{"Header", func() { sinkHeader = a.Header(held) }},
		} {
			if avg := testing.AllocsPerRun(100, tc.fn); avg != 0 {
				t.Errorf("checked=%v %s: %.1f allocations per run, want 0", checked, tc.name, avg)
			}
		}
	}
}
