package skiplist

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/internal/payload"
	"repro/smr"
)

// testSizer spreads payloads across the ladder: 8B..~1KB depending on key.
func testSizer(key uint64) int { return int(key*53%1024) + 1 }

func byteSkip(t *testing.T, sch smr.Scheme) *SkipList {
	t.Helper()
	return New(sch.Factory(), WithChecked(true), WithMaxThreads(8), WithByteValues(testSizer))
}

func TestByteValuesRoundTrip(t *testing.T) {
	s := byteSkip(t, smr.HE)
	h := s.Register()

	for key := uint64(0); key < 200; key++ {
		if !s.Insert(h, key, key|1<<40) {
			t.Fatalf("insert %d failed", key)
		}
	}
	if s.Insert(h, 5, 0) {
		t.Fatal("duplicate insert succeeded")
	}
	for key := uint64(0); key < 200; key++ {
		if v, ok := s.Get(h, key); !ok || v != key|1<<40 {
			t.Fatalf("Get(%d) = %d,%v", key, v, ok)
		}
		p, ok := s.GetBytes(h, key)
		if !ok || len(p) != payload.SizeFor(testSizer, key) {
			t.Fatalf("GetBytes(%d): len %d ok=%v", key, len(p), ok)
		}
		if !payload.Check(p, key|1<<40) {
			t.Fatalf("payload for %d corrupt", key)
		}
	}
	raw := []byte("ordered-map payload")
	if !s.InsertBytes(h, 1000, raw) {
		t.Fatal("InsertBytes failed")
	}
	if p, ok := s.GetBytes(h, 1000); !ok || !bytes.Equal(p, raw) {
		t.Fatalf("GetBytes(1000) = %q,%v", p, ok)
	}
	for key := uint64(0); key < 200; key += 2 {
		if !s.Remove(h, key) {
			t.Fatalf("remove %d failed", key)
		}
	}
	s.Drain()
	if st := s.Arena().Stats(); st.Live != 0 || st.Faults != 0 {
		t.Fatalf("after drain: %+v", st)
	}
}

// TestByteValuesRangeDecodes pins that Range reports decoded payload
// values in byte mode, in order, under continuous protection.
func TestByteValuesRangeDecodes(t *testing.T) {
	s := byteSkip(t, smr.HE)
	h := s.Register()
	for key := uint64(10); key < 60; key++ {
		s.Insert(h, key, key*11)
	}
	lastKey := uint64(0)
	n := s.Range(h, 20, 40, func(key, val uint64) bool {
		if val != key*11 {
			t.Fatalf("Range(%d) decoded %d, want %d", key, val, key*11)
		}
		if key <= lastKey && lastKey != 0 {
			t.Fatalf("out of order: %d after %d", key, lastKey)
		}
		lastKey = key
		return true
	})
	if n != 20 {
		t.Fatalf("Range visited %d, want 20", n)
	}
	s.Drain()
}

// TestByteValuesChurnConcurrent: the acceptance-criterion workload for the
// ordered map — readers (Get/GetBytes/Range) race writer-serialized
// Insert/Remove with mixed-size payloads on the checked arena, and a
// SetFreeGuard oracle asserts exactly-once reclamation per generation.
func TestByteValuesChurnConcurrent(t *testing.T) {
	const (
		readers  = 3
		keyRange = 128
		ops      = 2000
	)
	for _, sch := range schemes {
		t.Run(sch.String(), func(t *testing.T) {
			s := byteSkip(t, sch)
			freed := make(map[mem.Ref]int)
			var mu sync.Mutex
			s.Domain().(interface{ SetFreeGuard(func(mem.Ref)) }).SetFreeGuard(func(ref mem.Ref) {
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
					h := s.Register()
					defer h.Unregister()
					rng := uint64(w)*0x9E3779B9 + 3
					for !stop.Load() {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						key := rng % keyRange
						switch rng >> 32 % 3 {
						case 0:
							if v, ok := s.Get(h, key); ok && v != key*13+7 {
								t.Errorf("Get(%d) = %d", key, v)
								return
							}
						case 1:
							if p, ok := s.GetBytes(h, key); ok && !payload.Check(p, key*13+7) {
								t.Errorf("payload for %d corrupt", key)
								return
							}
						default:
							s.Range(h, key, key+16, func(k, v uint64) bool {
								if v != k*13+7 {
									t.Errorf("Range(%d) decoded %d", k, v)
									return false
								}
								return true
							})
						}
					}
				}(w)
			}
			// One writer-serialized mutator per domain handle.
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := s.Register()
				defer h.Unregister()
				rng := uint64(0xABCDEF) | 1
				for i := 0; i < ops; i++ {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					key := rng % keyRange
					if rng>>33%2 == 0 {
						s.Insert(h, key, key*13+7)
					} else {
						s.Remove(h, key)
					}
				}
				stop.Store(true)
			}()
			wg.Wait()
			s.Drain()

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
			if st := s.Arena().Stats(); st.Live != 0 || st.Faults != 0 {
				t.Fatalf("after churn+drain: Live=%d Faults=%d", st.Live, st.Faults)
			}
		})
	}
}
