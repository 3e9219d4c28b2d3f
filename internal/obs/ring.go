package obs

import "sync/atomic"

// Kind labels a flight-recorder event.
type Kind uint32

const (
	EvNone Kind = iota
	// EvScanStart: a reclamation scan began. Value = candidate count.
	EvScanStart
	// EvScanEnd: the scan finished. Value = nodes freed by the scan.
	EvScanEnd
	// EvFree: nodes were returned to the allocator outside a scan (inline
	// frees in URCU/RC, drain on unregister). Value = nodes freed.
	EvFree
	// EvAcquire: a session handle was served from the pool. Value = slot id.
	EvAcquire
	// EvRelease: a session handle was returned to the pool. Value = slot id.
	EvRelease
	// EvRegister: a fresh slot was registered (pool miss or explicit
	// Register). Value = slot id.
	EvRegister
	// EvUnregister: a slot was permanently unregistered. Value = slot id.
	EvUnregister
)

var kindNames = [...]string{
	EvNone:       "none",
	EvScanStart:  "scan_start",
	EvScanEnd:    "scan_end",
	EvFree:       "free",
	EvAcquire:    "acquire",
	EvRelease:    "release",
	EvRegister:   "register",
	EvUnregister: "unregister",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one decoded flight-recorder record.
type Event struct {
	T       int64  `json:"t_ns"`
	Seq     uint64 `json:"seq"`
	Session int    `json:"session"`
	Kind    Kind   `json:"-"`
	KindStr string `json:"kind"`
	Value   uint64 `json:"value"`
}

// entry is one seqlock-protected ring cell. Every field is atomic so the
// recorder stays clean under -race even when a snapshot races a writer; the
// seq field doubles as the validity protocol: 0 means mid-write, otherwise
// it holds the global position the payload belongs to. A reader that sees
// the same non-zero seq before and after reading the payload has a
// consistent record; anything else is discarded.
type entry struct {
	seq  atomic.Uint64
	t    atomic.Int64
	meta atomic.Uint64 // kind<<32 | session
	val  atomic.Uint64
}

// Ring is one flight-recorder stripe: a fixed-capacity power-of-two ring
// overwritten oldest-first. One session writes to it in the common case;
// when session ids exceed the striping hint two sessions may share a ring,
// which the claim-then-publish protocol tolerates (a torn overwrite is
// discarded by the seq check, never misread).
type Ring struct {
	pos     atomic.Uint64
	mask    uint64
	entries []entry
}

func (r *Ring) init(capacity int) {
	n := 1
	for n < capacity {
		n <<= 1
	}
	r.entries = make([]entry, n)
	r.mask = uint64(n - 1)
}

// Record appends one event, overwriting the oldest. Allocation-free.
func (r *Ring) Record(kind Kind, session int, value uint64) {
	p := r.pos.Add(1)
	e := &r.entries[(p-1)&r.mask]
	e.seq.Store(0) // invalidate before mutating the payload
	e.t.Store(Now())
	e.meta.Store(uint64(kind)<<32 | uint64(uint32(session)))
	e.val.Store(value)
	e.seq.Store(p) // publish
}

// Len reports how many events have ever been recorded (not the readable
// window, which is capped at the ring capacity).
func (r *Ring) Len() uint64 { return r.pos.Load() }

// Cap returns the ring capacity in events.
func (r *Ring) Cap() int { return len(r.entries) }

// Dropped reports how many records have been overwritten before any
// snapshot could have read them from the full window: every record past
// the ring capacity displaced an older one. The ring trades age for
// boundedness by design; this makes the trade visible
// (smr_obs_dropped_total) instead of silent.
func (r *Ring) Dropped() int64 {
	p := r.pos.Load()
	if c := uint64(len(r.entries)); p > c {
		return int64(p - c)
	}
	return 0
}

// appendEvents decodes every currently consistent entry into out. Entries
// being overwritten while we read are skipped — the flight recorder trades
// a lost record under contention for never inventing one.
func (r *Ring) appendEvents(out []Event) []Event {
	for i := range r.entries {
		e := &r.entries[i]
		s1 := e.seq.Load()
		if s1 == 0 {
			continue
		}
		t := e.t.Load()
		meta := e.meta.Load()
		val := e.val.Load()
		if e.seq.Load() != s1 {
			continue
		}
		k := Kind(meta >> 32)
		out = append(out, Event{
			T:       t,
			Seq:     s1,
			Session: int(uint32(meta)),
			Kind:    k,
			KindStr: k.String(),
			Value:   val,
		})
	}
	return out
}

// Events returns this ring's consistent records in timestamp order.
func (r *Ring) Events() []Event {
	ev := r.appendEvents(nil)
	sortEvents(ev)
	return ev
}
