package hashmap

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/payload"
	"repro/smr"
)

// testSizer spreads payloads across the ladder: 8B..~4KB depending on key.
func testSizer(key uint64) int { return int(key*131%4096) + 1 }

func byteMap(t *testing.T, s smr.Scheme) *Map {
	t.Helper()
	return New(s.Factory(), WithChecked(true), WithMaxThreads(8),
		WithBuckets(64), WithByteValues(testSizer))
}

func TestByteValuesRoundTrip(t *testing.T) {
	m := byteMap(t, smr.HE)
	h := m.Register()

	for key := uint64(0); key < 300; key++ {
		if !m.Insert(h, key, key<<8|5) {
			t.Fatalf("insert %d failed", key)
		}
	}
	for key := uint64(0); key < 300; key++ {
		if v, ok := m.Get(h, key); !ok || v != key<<8|5 {
			t.Fatalf("Get(%d) = %d,%v", key, v, ok)
		}
		p, ok := m.GetBytes(h, key)
		if !ok || len(p) != payload.SizeFor(testSizer, key) {
			t.Fatalf("GetBytes(%d): len %d ok=%v", key, len(p), ok)
		}
		if !payload.Check(p, key<<8|5) {
			t.Fatalf("payload for %d corrupt", key)
		}
	}
	raw := []byte("bucket-resident variable payload")
	if !m.InsertBytes(h, 1000, raw) {
		t.Fatal("InsertBytes failed")
	}
	if p, ok := m.GetBytes(h, 1000); !ok || !bytes.Equal(p, raw) {
		t.Fatalf("GetBytes(1000) = %q,%v", p, ok)
	}
	for key := uint64(0); key < 300; key++ {
		if !m.Remove(h, key) {
			t.Fatalf("remove %d failed", key)
		}
	}
	m.Drain()
	if st := m.Arena().Stats(); st.Live != 0 || st.Faults != 0 {
		t.Fatalf("after drain: %+v", st)
	}
}

// TestByteValuesChurnConcurrent is the acceptance-criterion workload: the
// hash map carries []byte values through retire/scan/free concurrently on
// the checked arena, with a SetFreeGuard oracle asserting every block is
// reclaimed exactly once per generation.
func TestByteValuesChurnConcurrent(t *testing.T) {
	const (
		workers  = 4
		keyRange = 256
		ops      = 4000
	)
	for _, sch := range schemes {
		t.Run(sch.String(), func(t *testing.T) {
			m := byteMap(t, sch)
			freed := make(map[mem.Ref]int)
			var mu sync.Mutex
			m.Domain().(interface{ SetFreeGuard(func(mem.Ref)) }).SetFreeGuard(func(ref mem.Ref) {
				mu.Lock()
				freed[ref.Unmarked()]++
				mu.Unlock()
			})

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := m.Register()
					defer h.Unregister()
					rng := uint64(w)*0x2545F4914F6CDD1D + 7
					for i := 0; i < ops; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						key := rng % keyRange
						switch rng >> 32 % 4 {
						case 0:
							m.Insert(h, key, key*7+3)
						case 1:
							m.Remove(h, key)
						case 2:
							if v, ok := m.Get(h, key); ok && v != key*7+3 {
								t.Errorf("Get(%d) = %d", key, v)
								return
							}
						default:
							if p, ok := m.GetBytes(h, key); ok && !payload.Check(p, key*7+3) {
								t.Errorf("payload for %d corrupt", key)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			m.Drain()

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
			if st := m.Arena().Stats(); st.Live != 0 || st.Faults != 0 {
				t.Fatalf("after churn+drain: Live=%d Faults=%d", st.Live, st.Faults)
			}
		})
	}
}

// TestByteValuesSharedArenaClasses pins that all buckets share one
// size-class space: per-class stats aggregate across buckets.
func TestByteValuesSharedArenaClasses(t *testing.T) {
	m := byteMap(t, smr.HE)
	h := m.Register()
	for key := uint64(0); key < 64; key++ {
		m.Insert(h, key, key)
	}
	live := int64(0)
	for _, cs := range m.Arena().ClassStats()[1:] {
		live += cs.Live
	}
	if live != 64 {
		t.Fatalf("byte-class live = %d, want 64 payloads", live)
	}
	m.Drain()
}
