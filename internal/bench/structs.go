package bench

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/bst"
	"repro/internal/hashmap"
	"repro/internal/linz"
	"repro/internal/list"
	"repro/internal/queue"
	"repro/internal/skiplist"
	"repro/internal/stack"
	"repro/internal/wfqueue"
	"repro/smr"
)

// Kind is a structure's abstract type: the sequential model its histories
// are checked against and the operation mix the drivers run on it.
type Kind uint8

const (
	KindSet  Kind = iota // Insert/Remove/Contains over keys
	KindFIFO             // Enqueue/Dequeue
	KindLIFO             // Push/Pop
)

// Structure is one row of the structure table. hestress, hecheck and every
// pairing of RC with a structure read the roster from it, so adding a
// structure is one row.
type Structure struct {
	Name string
	Kind Kind
	// RCSafe reports whether Valois reference counting is sound here. It is
	// not where deleted interior cells stay frozen (list-shaped traversals:
	// the Harris list and the map, tree and skip list built the same way;
	// paper §1 on [28]), nor on the wait-free queue, whose helpers hand
	// descriptor refs between threads through the announcement array and
	// slot-level counts cannot tell slot incarnations apart across the
	// recycle a helper races with (FAULT-WFQ-RC-001, in internal/wfqueue).
	RCSafe bool
	// Linz reports whether hecheck's linearizability suite checks the row.
	// The wait-free queue's session spans a node domain and a descriptor
	// domain, and the suite drives one smr.Guard per worker.
	Linz bool
	// New builds the structure under mk. checked selects checked, poisoned
	// arenas; sessions is the initial session capacity; a non-nil sizer
	// puts a set row in byte-value mode (other rows ignore it).
	New func(mk smr.Factory, checked bool, sessions int, sizer func(key uint64) int) Built
}

// Built is one constructed structure: a set (KindSet) or, for the FIFO and
// LIFO rows, Open, which starts one worker session and returns its push,
// its pop and its close. Faults counts the faults its checked arenas
// detected; Drain tears it down at quiescence.
type Built struct {
	Set    Set
	Open   func() (push func(v uint64), pop func() (uint64, bool), close func())
	Faults func() int64
	Drain  func()
}

var structures = []Structure{
	{Name: "list", Kind: KindSet, Linz: true, New: func(mk smr.Factory, checked bool, sessions int, sizer func(uint64) int) Built {
		l := list.New(mk, withSizer([]list.Option{list.WithChecked(checked), list.WithMaxThreads(sessions)}, sizer, list.WithByteValues)...)
		return Built{Set: l, Faults: func() int64 { return l.Arena().Stats().Faults }, Drain: l.Drain}
	}},
	// Two buckets: the linearizability suite's three keys share a chain.
	{Name: "map", Kind: KindSet, Linz: true, New: func(mk smr.Factory, checked bool, sessions int, sizer func(uint64) int) Built {
		m := hashmap.New(mk, withSizer([]hashmap.Option{hashmap.WithChecked(checked), hashmap.WithMaxThreads(sessions), hashmap.WithBuckets(2)}, sizer, hashmap.WithByteValues)...)
		return Built{Set: m, Faults: func() int64 { return m.Arena().Stats().Faults }, Drain: m.Drain}
	}},
	{Name: "queue", Kind: KindFIFO, RCSafe: true, Linz: true, New: func(mk smr.Factory, checked bool, sessions int, _ func(uint64) int) Built {
		q := queue.New(mk, queue.WithChecked(checked), queue.WithMaxThreads(sessions))
		return Built{Open: opener(q.Register, q.Enqueue, q.Dequeue), Faults: func() int64 { return q.Arena().Stats().Faults }, Drain: q.Drain}
	}},
	{Name: "stack", Kind: KindLIFO, RCSafe: true, Linz: true, New: func(mk smr.Factory, checked bool, sessions int, _ func(uint64) int) Built {
		s := stack.New(mk, stack.WithChecked(checked), stack.WithMaxThreads(sessions))
		return Built{Open: opener(s.Register, s.Push, s.Pop), Faults: func() int64 { return s.Arena().Stats().Faults }, Drain: s.Drain}
	}},
	{Name: "bst", Kind: KindSet, Linz: true, New: func(mk smr.Factory, checked bool, sessions int, sizer func(uint64) int) Built {
		t := bst.New(mk, withSizer([]bst.Option{bst.WithChecked(checked), bst.WithMaxThreads(sessions)}, sizer, bst.WithByteValues)...)
		return Built{Set: t, Faults: func() int64 { return t.Arena().Stats().Faults }, Drain: t.Drain}
	}},
	{Name: "wfq", Kind: KindFIFO, New: func(mk smr.Factory, checked bool, sessions int, _ func(uint64) int) Built {
		q := wfqueue.New(mk, wfqueue.WithChecked(checked), wfqueue.WithMaxThreads(sessions))
		faults := func() int64 { return q.NodeArena().Stats().Faults + q.DescArena().Stats().Faults }
		return Built{Open: opener(q.Register, q.Enqueue, q.Dequeue), Faults: faults, Drain: q.Drain}
	}},
	{Name: "skiplist", Kind: KindSet, Linz: true, New: func(mk smr.Factory, checked bool, sessions int, sizer func(uint64) int) Built {
		s := skiplist.New(mk, withSizer([]skiplist.Option{skiplist.WithChecked(checked), skiplist.WithMaxThreads(sessions)}, sizer, skiplist.WithByteValues)...)
		return Built{Set: s, Faults: func() int64 { return s.Arena().Stats().Faults }, Drain: s.Drain}
	}},
}

// withSizer appends the byte-value option to opts when sizer is non-nil.
func withSizer[O any](opts []O, sizer func(uint64) int, with func(func(key uint64) int) O) []O {
	if sizer != nil {
		opts = append(opts, with(sizer))
	}
	return opts
}

// opener adapts a FIFO or LIFO structure's session and operations to
// Built.Open.
func opener[S interface{ Unregister() }](register func() S, push func(S, uint64), pop func(S) (uint64, bool)) func() (func(uint64), func() (uint64, bool), func()) {
	return func() (func(uint64), func() (uint64, bool), func()) {
		s := register()
		return func(v uint64) { push(s, v) }, func() (uint64, bool) { return pop(s) }, s.Unregister
	}
}

// Structures returns the table, in the order the drivers print it.
func Structures() []Structure { return slices.Clone(structures) }

// StructNames lists the table's names followed by "all".
func StructNames() []string {
	var names []string
	for _, s := range structures {
		names = append(names, s.Name)
	}
	return append(names, "all")
}

// ParseStructs resolves a comma-separated list of structure names against
// the table; "all" is every row. Every entry must name a row; the error
// names the first one that does not.
func ParseStructs(spec string) ([]Structure, error) {
	if spec == "all" {
		return Structures(), nil
	}
	var out []Structure
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(structures, func(s Structure) bool { return s.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown structure %q (want one of %s)", name, strings.Join(StructNames(), ", "))
		}
		out = append(out, structures[i])
	}
	return out, nil
}

// Struct returns the row named name, for names fixed in code; it panics on
// any other name (flags go through ParseStructs).
func Struct(name string) Structure {
	rows, err := ParseStructs(name)
	if err != nil || len(rows) != 1 {
		panic(fmt.Sprintf("bench.Struct(%q): %v", name, err))
	}
	return rows[0]
}

// Admits reports whether sch may run on the structure: every scheme but
// RC, and RC where the row marks it sound.
func (s Structure) Admits(sch smr.Scheme) bool { return sch != smr.RC || s.RCSafe }

// Model returns a fresh sequential model of the row's kind.
func (s Structure) Model() linz.Model {
	switch s.Kind {
	case KindFIFO:
		return linz.NewQueueModel()
	case KindLIFO:
		return linz.NewStackModel()
	}
	return linz.NewSetModel()
}
