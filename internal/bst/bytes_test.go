package bst

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/internal/payload"
	"repro/smr"
)

// testSizer spreads payloads across the ladder: 8B..~512B depending on key.
func testSizer(key uint64) int { return int(key*29%512) + 1 }

func byteTree(t *testing.T, s smr.Scheme) *Tree {
	t.Helper()
	return New(s.Factory(), WithChecked(true), WithMaxThreads(8), WithByteValues(testSizer))
}

func TestByteValuesRoundTrip(t *testing.T) {
	tr := byteTree(t, smr.HE)
	h := tr.Register()

	for key := uint64(0); key < 200; key++ {
		if !tr.Insert(h, key, ^key) {
			t.Fatalf("insert %d failed", key)
		}
	}
	if tr.Insert(h, 9, 0) {
		t.Fatal("duplicate insert succeeded")
	}
	for key := uint64(0); key < 200; key++ {
		if v, ok := tr.Get(h, key); !ok || v != ^key {
			t.Fatalf("Get(%d) = %d,%v", key, v, ok)
		}
		p, ok := tr.GetBytes(h, key)
		if !ok || len(p) != payload.SizeFor(testSizer, key) {
			t.Fatalf("GetBytes(%d): len %d ok=%v", key, len(p), ok)
		}
		if !payload.Check(p, ^key) {
			t.Fatalf("payload for %d corrupt", key)
		}
	}
	raw := []byte("leaf-resident payload")
	if !tr.InsertBytes(h, 1000, raw) {
		t.Fatal("InsertBytes failed")
	}
	if p, ok := tr.GetBytes(h, 1000); !ok || !bytes.Equal(p, raw) {
		t.Fatalf("GetBytes(1000) = %q,%v", p, ok)
	}
	for key := uint64(0); key < 200; key++ {
		if !tr.Remove(h, key) {
			t.Fatalf("remove %d failed", key)
		}
	}
	tr.Drain()
	if st := tr.Arena().Stats(); st.Live != 0 || st.Faults != 0 {
		t.Fatalf("after drain: %+v", st)
	}
}

// TestByteValuesChurnConcurrent races path-protected readers against the
// writer-serialized Insert/Remove with mixed-size leaf payloads on the
// checked arena; the SetFreeGuard oracle asserts exactly-once reclamation.
func TestByteValuesChurnConcurrent(t *testing.T) {
	const (
		readers  = 3
		keyRange = 128
		ops      = 2000
	)
	for _, sch := range schemes {
		t.Run(sch.String(), func(t *testing.T) {
			tr := byteTree(t, sch)
			freed := make(map[mem.Ref]int)
			var mu sync.Mutex
			tr.Domain().(interface{ SetFreeGuard(func(mem.Ref)) }).SetFreeGuard(func(ref mem.Ref) {
				mu.Lock()
				freed[ref.Unmarked()]++
				mu.Unlock()
			})

			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := tr.Register()
					defer h.Unregister()
					rng := uint64(w)*0x6C62272E07BB0142 + 11
					for !stop.Load() {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						key := rng % keyRange
						if rng>>32%2 == 0 {
							if v, ok := tr.Get(h, key); ok && v != key^0x5555 {
								t.Errorf("Get(%d) = %d", key, v)
								return
							}
						} else {
							if p, ok := tr.GetBytes(h, key); ok && !payload.Check(p, key^0x5555) {
								t.Errorf("payload for %d corrupt", key)
								return
							}
						}
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := tr.Register()
				defer h.Unregister()
				rng := uint64(0xFEEDFACE) | 1
				for i := 0; i < ops; i++ {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					key := rng % keyRange
					if rng>>33%2 == 0 {
						tr.Insert(h, key, key^0x5555)
					} else {
						tr.Remove(h, key)
					}
				}
				stop.Store(true)
			}()
			wg.Wait()
			tr.Drain()

			mu.Lock()
			defer mu.Unlock()
			payloadFrees := 0
			for ref, n := range freed {
				if n != 1 {
					t.Fatalf("%v freed %d times through the reclamation path", ref, n)
				}
				if ref.Class() != 0 {
					payloadFrees++
				}
			}
			if payloadFrees == 0 {
				t.Fatal("no payload blocks crossed the reclamation free path")
			}
			if st := tr.Arena().Stats(); st.Live != 0 || st.Faults != 0 {
				t.Fatalf("after churn+drain: Live=%d Faults=%d", st.Live, st.Faults)
			}
		})
	}
}
