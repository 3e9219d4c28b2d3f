package list

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/payload"
	"repro/smr"
)

// testSizer spreads payloads across the ladder: 8B..~2KB depending on key.
func testSizer(key uint64) int { return int(key*37%2048) + 1 }

func byteList(t *testing.T, s smr.Scheme) *List {
	t.Helper()
	return New(s.Factory(), WithChecked(true), WithMaxThreads(8), WithByteValues(testSizer))
}

func TestByteValuesRoundTrip(t *testing.T) {
	l := byteList(t, smr.HE)
	h := l.Register()

	for key := uint64(0); key < 100; key++ {
		if !l.Insert(h, key, key*3+1) {
			t.Fatalf("insert %d failed", key)
		}
	}
	if l.Insert(h, 7, 999) {
		t.Fatal("duplicate insert succeeded")
	}
	for key := uint64(0); key < 100; key++ {
		v, ok := l.Get(h, key)
		if !ok || v != key*3+1 {
			t.Fatalf("Get(%d) = %d,%v", key, v, ok)
		}
		p, ok := l.GetBytes(h, key)
		if !ok {
			t.Fatalf("GetBytes(%d) missing", key)
		}
		if want := payload.SizeFor(testSizer, key); len(p) != want {
			t.Fatalf("GetBytes(%d) len %d, want %d", key, len(p), want)
		}
		if !payload.Check(p, key*3+1) {
			t.Fatalf("GetBytes(%d) payload pattern corrupt: %x", key, p)
		}
	}
	for key := uint64(0); key < 100; key += 2 {
		if !l.Remove(h, key) {
			t.Fatalf("remove %d failed", key)
		}
	}
	for key := uint64(0); key < 100; key++ {
		if got := l.Contains(h, key); got != (key%2 == 1) {
			t.Fatalf("Contains(%d) = %v after removals", key, got)
		}
	}
	l.Drain()
	if st := l.Arena().Stats(); st.Live != 0 || st.Faults != 0 {
		t.Fatalf("after drain: %+v", st)
	}
}

func TestByteValuesInsertBytes(t *testing.T) {
	l := byteList(t, smr.HE)
	h := l.Register()

	raw := []byte("hazard eras store real payloads now")
	if !l.InsertBytes(h, 42, raw) {
		t.Fatal("InsertBytes failed")
	}
	got, ok := l.GetBytes(h, 42)
	if !ok || !bytes.Equal(got, raw) {
		t.Fatalf("GetBytes = %q,%v", got, ok)
	}
	// The returned slice is a copy: mutating it must not touch the stored
	// block.
	got[0] = 'X'
	again, _ := l.GetBytes(h, 42)
	if !bytes.Equal(again, raw) {
		t.Fatal("GetBytes returned the live block, not a copy")
	}
	// Get decodes the leading value word of whatever bytes were stored.
	if v, ok := l.Get(h, 42); !ok || v != payload.Decode(raw) {
		t.Fatalf("Get over raw payload = %x,%v", v, ok)
	}
	// Short payloads (below the value word) round-trip too.
	if !l.InsertBytes(h, 43, []byte{1, 2, 3}) {
		t.Fatal("short InsertBytes failed")
	}
	if p, ok := l.GetBytes(h, 43); !ok || !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("short GetBytes = %x,%v", p, ok)
	}
	l.Drain()
	if st := l.Arena().Stats(); st.Live != 0 {
		t.Fatalf("leak: %+v", st)
	}
}

// TestByteValuesChurnAllSchemes drives mixed-size payloads through
// retire/scan/free under every scheme, concurrently, on the checked arena:
// generation checks catch use-after-free, poison canaries catch overruns,
// and Live==0 after teardown catches leaks (payloads and nodes both).
func TestByteValuesChurnAllSchemes(t *testing.T) {
	const (
		workers  = 4
		keyRange = 128
		ops      = 3000
	)
	for _, sch := range schemes {
		t.Run(sch.String(), func(t *testing.T) {
			l := byteList(t, sch)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := l.Register()
					defer h.Unregister()
					rng := uint64(w)*0x9E3779B9 + 1
					for i := 0; i < ops; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						key := rng % keyRange
						switch rng >> 32 % 4 {
						case 0:
							l.Insert(h, key, key^0xABCD)
						case 1:
							l.Remove(h, key)
						case 2:
							if v, ok := l.Get(h, key); ok && v != key^0xABCD {
								t.Errorf("Get(%d) = %d", key, v)
								return
							}
						default:
							if p, ok := l.GetBytes(h, key); ok && !payload.Check(p, key^0xABCD) {
								t.Errorf("payload for %d corrupt", key)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			l.Drain()
			if st := l.Arena().Stats(); st.Live != 0 || st.Faults != 0 {
				t.Fatalf("after churn+drain: Live=%d Faults=%d", st.Live, st.Faults)
			}
		})
	}
}

// TestByteValuesFreeGuardExactlyOnce installs a SetFreeGuard oracle that
// records every (index,class,generation) the reclamation path frees; a
// repeat is a double free the checked arena would only catch one
// generation later.
func TestByteValuesFreeGuardExactlyOnce(t *testing.T) {
	l := byteList(t, smr.HE)
	freed := make(map[mem.Ref]int)
	var mu sync.Mutex
	l.Domain().(interface{ SetFreeGuard(func(mem.Ref)) }).SetFreeGuard(func(ref mem.Ref) {
		mu.Lock()
		freed[ref.Unmarked()]++
		mu.Unlock()
	})

	h := l.Register()
	const keys = 200
	for round := 0; round < 3; round++ {
		for key := uint64(0); key < keys; key++ {
			l.Insert(h, key, key)
		}
		for key := uint64(0); key < keys; key++ {
			l.Remove(h, key)
		}
	}
	h.Unregister()
	l.Drain()

	mu.Lock()
	defer mu.Unlock()
	payloadFrees := 0
	for ref, n := range freed {
		if n != 1 {
			t.Fatalf("%v freed %d times", ref, n)
		}
		if ref.Class() != 0 {
			payloadFrees++
		}
	}
	if payloadFrees == 0 {
		t.Fatal("no payload blocks crossed the reclamation free path")
	}
	if st := l.Arena().Stats(); st.Live != 0 {
		t.Fatalf("leak: %+v", st)
	}
}
