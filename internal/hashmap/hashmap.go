// Package hashmap implements the lock-free hash table of M. M. Michael,
// "High performance dynamic lock-free hash tables and list-based sets"
// (SPAA 2002) — the second structure of the paper this repository's list
// package implements, and the natural scale-out workload for a reclamation
// scheme: a fixed array of bucket heads, each the root of a Harris-Michael
// list. Like the list it builds on, it speaks only the public smr API.
//
// All buckets share one arena and one reclamation domain, so reclamation
// pressure aggregates across buckets exactly as it would in C++ where all
// nodes come from the same allocator.
package hashmap

import (
	"repro/internal/atomicx"
	"repro/internal/list"
	"repro/smr"
)

// bucket pads each head cell to its own cache line: bucket heads are the
// hottest CAS targets in the structure.
type bucket struct {
	head smr.Atomic[list.Node]
	_    [atomicx.CacheLineSize - 8]byte
}

// Map is a fixed-capacity lock-free hash map from uint64 keys to uint64
// values.
type Map struct {
	ops     list.Ops
	buckets []bucket
	mask    uint64
}

// Option configures a Map.
type Option func(*config)

type config struct {
	checked  bool
	threads  int
	buckets  int
	byteVals bool
	valSizer func(key uint64) int
}

// WithChecked enables the checked (generation-validated, poisoned) arena.
func WithChecked(on bool) Option { return func(c *config) { c.checked = on } }

// WithMaxThreads sets the domain's initial session capacity (default 64);
// the registry grows past it on demand.
func WithMaxThreads(n int) Option { return func(c *config) { c.threads = n } }

// WithBuckets sets the bucket count, rounded up to a power of two
// (default 1024).
func WithBuckets(n int) Option { return func(c *config) { c.buckets = n } }

// WithByteValues stores values as variable-size payload blocks in the
// shared arena's size-class space (see list.WithByteValues); sizer maps a
// key to its payload size.
func WithByteValues(sizer func(key uint64) int) Option {
	return func(c *config) { c.byteVals = true; c.valSizer = sizer }
}

// New builds an empty map whose nodes are reclaimed through the domain
// produced by mk.
func New(mk smr.Factory, opts ...Option) *Map {
	c := config{threads: 64, buckets: 1024}
	for _, o := range opts {
		o(&c)
	}
	n := 1
	for n < c.buckets {
		n <<= 1
	}
	var arenaOpts []smr.ArenaOption[list.Node]
	if c.checked {
		arenaOpts = append(arenaOpts, smr.Checked[list.Node](true), smr.WithPoison(list.PoisonNode))
	}
	if c.byteVals {
		arenaOpts = append(arenaOpts, smr.WithByteValues[list.Node]())
	}
	d := smr.NewWith[list.Node](mk, smr.Config{MaxThreads: c.threads, Slots: list.Slots}, arenaOpts...)
	return &Map{
		ops:     list.Ops{D: d, ByteVals: c.byteVals, ValSizer: c.valSizer},
		buckets: make([]bucket, n),
		mask:    uint64(n - 1),
	}
}

// hash is Fibonacci hashing: multiplicative spreading of the key bits so
// that dense benchmark key ranges do not collide into adjacent buckets.
func (m *Map) hash(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 32 & m.mask
}

func (m *Map) bucketFor(key uint64) *smr.Atomic[list.Node] {
	return &m.buckets[m.hash(key)].head
}

// SMR exposes the typed reclamation domain (sessions, stats, teardown).
func (m *Map) SMR() *smr.Domain[list.Node] { return m.ops.D }

// Domain exposes the scheme-level backend for generic drivers.
func (m *Map) Domain() smr.Backend { return m.ops.D.Backend() }

// Arena exposes the node arena.
func (m *Map) Arena() *smr.Arena[list.Node] { return m.ops.D.Arena() }

// Register opens a session on the map's domain.
func (m *Map) Register() *smr.Guard { return m.ops.D.Register() }

// Acquire returns a pooled session on the map's domain.
func (m *Map) Acquire() *smr.Guard { return m.ops.D.Acquire() }

// Buckets reports the bucket count.
func (m *Map) Buckets() int { return len(m.buckets) }

// Insert adds key->val; false if already present.
func (m *Map) Insert(g *smr.Guard, key, val uint64) bool {
	return m.ops.Insert(m.bucketFor(key), g, key, val)
}

// Remove deletes key; false if absent.
func (m *Map) Remove(g *smr.Guard, key uint64) bool {
	return m.ops.Remove(m.bucketFor(key), g, key)
}

// Contains reports membership of key.
func (m *Map) Contains(g *smr.Guard, key uint64) bool {
	return m.ops.Contains(m.bucketFor(key), g, key)
}

// Get returns the value stored under key.
func (m *Map) Get(g *smr.Guard, key uint64) (uint64, bool) {
	return m.ops.Get(m.bucketFor(key), g, key)
}

// InsertBytes adds key->raw (byte-value mode only); false if present.
func (m *Map) InsertBytes(g *smr.Guard, key uint64, raw []byte) bool {
	return m.ops.InsertBytes(m.bucketFor(key), g, key, raw)
}

// GetBytes returns a copy of key's payload block (byte-value mode only).
func (m *Map) GetBytes(g *smr.Guard, key uint64) ([]byte, bool) {
	return m.ops.GetBytes(m.bucketFor(key), g, key)
}

// Len counts elements across all buckets; quiescent use only.
func (m *Map) Len() int {
	n := 0
	for i := range m.buckets {
		n += m.ops.Len(&m.buckets[i].head)
	}
	return n
}

// Drain tears the map down, freeing all linked nodes and pending retirees.
func (m *Map) Drain() {
	for i := range m.buckets {
		m.ops.DrainList(&m.buckets[i].head)
	}
	m.ops.D.Drain()
}
