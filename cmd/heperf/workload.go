package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/hashmap"
	"repro/internal/list"
	"repro/internal/payload"
	"repro/smr"
)

// set is the slice of the list and hash-map API the workers drive; both
// *list.List and *hashmap.Map satisfy it.
type set interface {
	Register() *smr.Guard
	Insert(g *smr.Guard, key, val uint64) bool
	Remove(g *smr.Guard, key uint64) bool
	Get(g *smr.Guard, key uint64) (uint64, bool)
	GetBytes(g *smr.Guard, key uint64) ([]byte, bool)
	Len() int
	Drain()
	SMR() *smr.Domain[list.Node]
}

// pinner is a set that can park a reader inside an operation window: the
// paper's Appendix-A sleepy reader (list.List).
type pinner interface {
	Pin(g *smr.Guard)
	Unpin(g *smr.Guard)
}

// workload is one seeded input the benchmark runs under every scheme. Why
// each exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name      string
	structure string // span-name prefix: "list" or "hashmap"
	keys      uint64 // prefilled key range [0, keys)
	updatePct uint64 // share of operations that remove and reinsert a key
	byteVals  bool   // reads go through GetBytes and payload.Check
	stall     bool   // a reader stays pinned on the structure in every scheme window
	// timeEvery: every timeEvery-th operation of a worker is timed. List
	// operations take tens of microseconds, so timing each costs well under
	// 1% and gives every window enough reads for a p99; hash-map ones take
	// about one, so one in eight is timed.
	timeEvery uint64
	build     func(smr.Scheme) set
}

// hashKeys sizes the hash-map workloads: about 1 MiB of buckets and nodes
// (2 MiB with payloads), sixteen times the list's set yet inside one core's
// L2 and the TLB's reach. Sets of several MiB ran bimodally on a shared
// VM host, fast or a third slower for a whole run, in step with no
// calibration kernel, so their numbers could not be compared across runs.
const hashKeys = 1 << 13

var workloads = []workload{
	{name: "traverse", structure: "list", keys: 1000, updatePct: 10, timeEvery: 1,
		build: func(s smr.Scheme) set { return list.New(s.Factory()) }},
	{name: "churn", structure: "hashmap", keys: hashKeys, updatePct: 90, timeEvery: 8,
		build: func(s smr.Scheme) set { return hashmap.New(s.Factory(), hashmap.WithBuckets(hashKeys)) }},
	{name: "payload", structure: "hashmap", keys: hashKeys, updatePct: 10, byteVals: true, timeEvery: 8,
		build: func(s smr.Scheme) set {
			return hashmap.New(s.Factory(), hashmap.WithBuckets(hashKeys), hashmap.WithByteValues(payloadSize))
		}},
	{name: "stall", structure: "list", keys: 1000, updatePct: 90, stall: true, timeEvery: 1,
		build: func(s smr.Scheme) set { return list.New(s.Factory()) }},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// payloadSize maps a key to a payload of 16 B to 1 KiB with a zipf-like
// shape: half the keys get 16 B, and each further trailing one-bit of the
// key's hash doubles the size, so the mean block is 64 B with a 1 KiB tail.
// It depends only on the key, so a reinserted key gets the same size.
func payloadSize(key uint64) int {
	z := mix64(key)
	size := 16
	for z&1 == 1 && size < 1024 {
		size <<= 1
		z >>= 1
	}
	return size
}

const golden = 0x9E3779B97F4A7C15

// mix64 is SplitMix64's output finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// splitMix64 is a one-word PRNG, cheap enough not to perturb the costs
// being measured.
type splitMix64 struct{ state uint64 }

// stream returns the generator for stream i of a run: stream 0 orders the
// prefill, stream w+1 feeds worker w. Every scheme replays the same streams,
// so HE and HP see the same keys in the same order.
func stream(seed uint64, i int) splitMix64 {
	return splitMix64{state: mix64(seed + uint64(i+1)*golden)}
}

func (s *splitMix64) next() uint64 {
	s.state += golden
	return mix64(s.state)
}

// permutation returns 0..n-1 shuffled by rng (Fisher-Yates).
func permutation(n uint64, rng splitMix64) []uint64 {
	p := make([]uint64, n)
	for i := range p {
		p[i] = uint64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.next() % (i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// prefill inserts every key of w in the seeded prefill order, value = key.
func prefill(s set, w *workload, seed uint64) {
	g := s.Register()
	for _, k := range permutation(w.keys, stream(seed, 0)) {
		s.Insert(g, k, k)
	}
	g.Unregister()
}

// spanEvery: in traced windows every spanEvery-th operation of a worker, by
// operation index, is recorded as spans. It is a multiple of every
// workload's timeEvery, so the spans are a subset of the timed operations.
const spanEvery = 64

// epoch anchors span timestamps; now reads the monotonic clock against it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// worker is one closed-loop client of one scheme's structure: it issues its
// next operation only after the previous one returned.
type worker struct {
	w   *workload
	s   set
	g   *smr.Guard
	id  int
	rng splitMix64
	seq uint64 // operations issued over the whole run; selects the sampled ones

	// Per-window outputs, cleared by reset.
	ops      int64
	readNs   []int64
	updateNs []int64

	spans *spanLog // non-nil in traced windows

	failed   int64
	firstErr string
	dead     bool // a panic ended this worker; it sits out later windows
}

func (k *worker) reset() {
	k.ops = 0
	k.readNs = k.readNs[:0]
	k.updateNs = k.updateNs[:0]
}

func (k *worker) fail(format string, args ...any) {
	k.failed++
	if k.firstErr == "" {
		k.firstErr = fmt.Sprintf(format, args...)
	}
}

func (k *worker) loop(stop *atomic.Bool) {
	if k.dead {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			k.fail("worker %d panicked: %v", k.id, r)
			k.dead = true
		}
	}()
	for !stop.Load() {
		k.step()
	}
}

func (k *worker) step() {
	key := k.rng.next() % k.w.keys
	update := k.rng.next()%100 < k.w.updatePct
	seq := k.seq
	k.seq++
	k.ops++
	switch {
	case seq%k.w.timeEvery != 0:
		k.do(key, update)
	case k.spans != nil && seq%spanEvery == 0:
		k.traced(seq, key, update)
	default:
		t0 := now()
		k.do(key, update)
		k.record(update, now()-t0)
	}
}

func (k *worker) record(update bool, ns int64) {
	if update {
		k.updateNs = append(k.updateNs, ns)
	} else {
		k.readNs = append(k.readNs, ns)
	}
}

func (k *worker) do(key uint64, update bool) {
	if !update {
		k.read(key)
		return
	}
	if k.s.Remove(k.g, key) {
		k.insert(key)
	}
}

// read looks key up and checks what comes back: a word value must equal
// its key, a payload block must carry exactly the bytes Insert encoded. A
// miss is legal, since the other worker may hold the key removed.
func (k *worker) read(key uint64) {
	if k.w.byteVals {
		if buf, ok := k.s.GetBytes(k.g, key); ok && !payload.Check(buf, key) {
			k.fail("GetBytes(%d) returned a corrupt payload of %d bytes", key, len(buf))
		}
		return
	}
	if v, ok := k.s.Get(k.g, key); ok && v != key {
		k.fail("Get(%d) = %d", key, v)
	}
}

// insert puts back a key this worker just removed. Only the remover
// reinserts a key, so the insert must find it absent.
func (k *worker) insert(key uint64) {
	if !k.s.Insert(k.g, key, key) {
		k.fail("Insert(%d) after this worker's Remove found the key present", key)
	}
}

// traced runs one operation and records it as spans: a read is one span;
// an update is a parent span with its remove and, when the remove found the
// key, its insert as children.
func (k *worker) traced(seq, key uint64, update bool) {
	t0 := now()
	if !update {
		k.read(key)
		end := now()
		k.spans.add(opSpan{seq: seq, start: t0, mid: end, end: end})
		k.record(false, end-t0)
		return
	}
	removed := k.s.Remove(k.g, key)
	mid := now()
	if removed {
		k.insert(key)
	}
	end := now()
	k.spans.add(opSpan{seq: seq, update: true, removed: removed, start: t0, mid: mid, end: end})
	k.record(true, end-t0)
}
