package main

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/list"
	"repro/smr"
)

// The ledger times one thread walking a 1000-node chain through
// successively higher layers, each rung adding one layer to the one below:
//
//	mem.walk_ns                  DerefQuiescent + Peek, no reclamation at all
//	reclaim.backend_protect_ns   + the scheme's Protect, called on smr.Backend
//	reclaim.handle_protect_ns    + the session Handle wrapper (Guard.Handle().Protect)
//	smr.load_ns                  + the Guard's window checks (Atomic.Load + Deref)
//	list.contains_ns             + the list's own logic (List.Contains of the tail key)
//
// so the difference between adjacent rungs is that layer's own cost per
// node. Rungs are interleaved slice by slice and each reports its median
// slice, which keeps a burst of host noise from landing on one rung only.

// chainNode is the ledger's node. next is the typed link the smr rung
// loads; raw holds the same ref as a plain word for the Backend and Handle
// rungs, which protect through a *atomic.Uint64 that smr.Atomic keeps
// unexported.
type chainNode struct {
	next smr.Atomic[chainNode]
	raw  atomic.Uint64
}

const ledgerNodes = 1000

// ledgerSchemes adds EBR to the measured schemes as a reference row.
var ledgerSchemes = append(slices.Clone(measured), scheme{"ebr", smr.EBR})

// chain is one scheme's ledger fixture: a chain in a typed domain, and a
// list holding the same number of keys under the same scheme.
type chain struct {
	scheme
	d       *smr.Domain[chainNode]
	g       *smr.Guard
	head    smr.Atomic[chainNode]
	headRaw atomic.Uint64
	pub     smr.Ref // an allocated, never-linked block the publish rung restamps
	l       *list.List
	lg      *smr.Guard
}

func newChain(sc scheme) *chain {
	c := &chain{scheme: sc, d: smr.New[chainNode](sc.id, smr.Config{Slots: list.Slots})}
	c.g = c.d.Register()
	for i := 0; i < ledgerNodes; i++ {
		p, n := c.d.Alloc(c.g)
		n.next.Store(c.head.Peek())
		n.raw.Store(c.headRaw.Load())
		c.d.Publish(p.Ref())
		c.head.Store(p)
		c.headRaw.Store(uint64(p.Ref()))
	}
	p, _ := c.d.Alloc(c.g)
	c.pub = p.Ref()
	c.l = list.New(sc.id.Factory())
	c.lg = c.l.Register()
	for k := uint64(ledgerNodes); k > 0; k-- {
		c.l.Insert(c.lg, k-1, k-1)
	}
	return c
}

func (c *chain) walk(reps int) {
	for ; reps > 0; reps-- {
		for p := c.head.Peek(); !p.IsNil(); p = c.d.DerefQuiescent(p).next.Peek() {
		}
	}
}

func (c *chain) backendProtect(reps int) {
	b, h := c.d.Backend(), c.g.Handle()
	for ; reps > 0; reps-- {
		b.BeginOp(h)
		src, slot := &c.headRaw, 0
		for {
			ref := b.Protect(h, slot, src)
			if ref.IsNil() {
				break
			}
			src = &c.d.DerefQuiescent(smr.PtrOf[chainNode](ref)).raw
			if slot++; slot == list.Slots {
				slot = 0
			}
		}
		b.EndOp(h)
	}
}

func (c *chain) handleProtect(reps int) {
	h := c.g.Handle()
	for ; reps > 0; reps-- {
		h.BeginOp()
		src, slot := &c.headRaw, 0
		for {
			ref := h.Protect(slot, src)
			if ref.IsNil() {
				break
			}
			src = &c.d.DerefQuiescent(smr.PtrOf[chainNode](ref)).raw
			if slot++; slot == list.Slots {
				slot = 0
			}
		}
		h.EndOp()
	}
}

func (c *chain) load(reps int) {
	for ; reps > 0; reps-- {
		c.g.BeginOp()
		a, slot := &c.head, 0
		for {
			p := a.Load(c.g, slot)
			if p.IsNil() {
				break
			}
			a = &c.d.Deref(c.g, p).next
			if slot++; slot == list.Slots {
				slot = 0
			}
		}
		c.g.EndOp()
	}
}

func (c *chain) contains(reps int) {
	for ; reps > 0; reps-- {
		c.l.Contains(c.lg, ledgerNodes-1)
	}
}

func (c *chain) beginEnd(reps int) {
	for ; reps > 0; reps-- {
		c.g.BeginOp()
		c.g.EndOp()
	}
}

func (c *chain) allocFree(reps int) {
	for ; reps > 0; reps-- {
		p, _ := c.d.Alloc(c.g)
		c.d.Free(c.g, p.Ref())
	}
}

func (c *chain) publish(reps int) {
	for ; reps > 0; reps-- {
		c.d.Publish(c.pub)
	}
}

// allocRetire is the write path of one removed node: allocate, publish,
// retire (which scans, and frees what the scan finds unprotected).
func (c *chain) allocRetire(reps int) {
	for ; reps > 0; reps-- {
		p, _ := c.d.Alloc(c.g)
		c.d.Publish(p.Ref())
		c.g.Retire(p.Ref())
	}
}

// rung is one timed loop of the ledger.
type rung struct {
	name string
	per  int // operations one rep performs, for the per-operation division
	reps int // reps per slice
	fn   func(reps int)
	xs   []float64 // ns per operation, one value per slice
}

// interleave runs every rung once per slice, rotating the starting rung.
func interleave(rs []*rung, n int) {
	for s := 0; s < n; s++ {
		for i := range rs {
			r := rs[(i+s)%len(rs)]
			t0 := time.Now()
			r.fn(r.reps)
			r.xs = append(r.xs, float64(time.Since(t0))/float64(r.reps*r.per))
		}
	}
}

// ledgerStat summarizes one rung's slices for layers.json.
type ledgerStat struct {
	Name   string  `json:"name"`
	Median float64 `json:"median_ns"`
	Q1     float64 `json:"q1_ns"`
	Q3     float64 `json:"q3_ns"`
	Slices int     `json:"slices"`
}

// ledger is the workload-independent part of a traced run.
type ledger struct {
	metrics []metric
	stats   []ledgerStat
	check   []string // rungs that read cheaper than the rung below by more than their IQR
}

// Reps per slice, sized so one slice of a rung takes tens of microseconds,
// and the slice count, which makes the whole ledger take about 0.3 s.
const (
	walkReps     = 4
	opReps       = 512
	retireReps   = 32
	ledgerSlices = 400
)

func runLedger(seed uint64) *ledger {
	lg := &ledger{check: []string{}}
	var rs []*rung
	add := func(name string, per, reps int, fn func(int)) *rung {
		r := &rung{name: name, per: per, reps: reps, fn: fn}
		rs = append(rs, r)
		return r
	}
	type perScheme struct{ walk, backend, handle, load, contains, beginEnd, allocFree, publish, retire *rung }
	rows := make([]perScheme, len(ledgerSchemes))
	for i, sc := range ledgerSchemes {
		c := newChain(sc)
		s := "." + sc.name
		rows[i] = perScheme{
			walk:      add("mem.walk_ns"+s, ledgerNodes, walkReps, c.walk),
			backend:   add("reclaim.backend_protect_ns"+s, ledgerNodes, walkReps, c.backendProtect),
			handle:    add("reclaim.handle_protect_ns"+s, ledgerNodes, walkReps, c.handleProtect),
			load:      add("smr.load_ns"+s, ledgerNodes, walkReps, c.load),
			contains:  add("list.contains_ns"+s, ledgerNodes, walkReps, c.contains),
			beginEnd:  add("smr.begin_end_ns"+s, 1, opReps, c.beginEnd),
			allocFree: add("mem.alloc_free_ns"+s, 1, opReps, c.allocFree),
			publish:   add("reclaim.publish_ns"+s, 1, opReps, c.publish),
			retire:    add("reclaim.alloc_retire_ns"+s, 1, retireReps, c.allocRetire),
		}
	}
	bd := smr.New[chainNode](smr.HE, smr.Config{Slots: list.Slots}, smr.WithByteValues[chainNode]())
	bg := bd.Register()
	sizes := stream(seed, 0)
	bytes := add("mem.bytes_alloc_free_ns", 1, opReps, func(reps int) {
		for ; reps > 0; reps-- {
			b, _ := bd.AllocBytes(bg, payloadSize(sizes.next()))
			bd.Free(bg, b.Ref())
		}
	})

	interleave(rs, ledgerSlices)
	for _, r := range rs {
		q1, q3 := quartiles(r.xs)
		lg.stats = append(lg.stats, ledgerStat{Name: r.name, Median: median(r.xs), Q1: q1, Q3: q3, Slices: len(r.xs)})
	}

	emit := func(name string, xs []float64) {
		lg.metrics = append(lg.metrics, metric{Name: name, Unit: "ns", Value: median(xs), N: len(xs)})
	}
	var walks, allocs []float64
	for _, row := range rows {
		walks = append(walks, row.walk.xs...)
		allocs = append(allocs, row.allocFree.xs...)
	}
	emit("mem.walk_ns", walks)
	emit("mem.alloc_free_ns", allocs)
	emit("mem.bytes_alloc_free_ns", bytes.xs)
	for i, sc := range ledgerSchemes {
		row, s := rows[i], "."+sc.name
		emit("reclaim.backend_protect_ns"+s, row.backend.xs)
		emit("reclaim.handle_protect_ns"+s, row.handle.xs)
		emit("smr.load_ns"+s, row.load.xs)
		emit("list.contains_ns"+s, row.contains.xs)
		emit("smr.begin_end_ns"+s, row.beginEnd.xs)
		emit("reclaim.publish_ns"+s, row.publish.xs)
		// Retire's own cost: each slice's alloc+publish+retire loop minus
		// the same slice's alloc+free loop.
		own := make([]float64, len(row.retire.xs))
		for j := range own {
			own[j] = row.retire.xs[j] - row.allocFree.xs[j]
		}
		emit("reclaim.retire_ns"+s, own)

		ladder := []*rung{row.walk, row.backend, row.handle, row.load, row.contains}
		for j := 1; j < len(ladder); j++ {
			lo, hi := ladder[j-1], ladder[j]
			q1, q3 := quartiles(hi.xs)
			if median(hi.xs) < median(lo.xs)-(q3-q1) {
				lg.check = append(lg.check, fmt.Sprintf("%s median %.3f ns < %s median %.3f ns by more than its IQR %.3f ns",
					hi.name, median(hi.xs), lo.name, median(lo.xs), q3-q1))
			}
		}
	}
	lg.metrics = append(lg.metrics, table1(seed)...)
	return lg
}

// table1 counts the atomic operations a scheme's Protect issues per node on
// a one-thread list traversal: the paper's Table 1 "2 loads" for HE against
// "2 loads + 1 store" for HP. The counts repeat exactly from run to run.
func table1(seed uint64) []metric {
	var ms []metric
	for _, sc := range ledgerSchemes {
		ins := smr.NewInstrument(64)
		l := list.New(sc.id.Factory(), list.WithInstrument(ins))
		g := l.Register()
		for k := uint64(ledgerNodes); k > 0; k-- {
			l.Insert(g, k-1, k-1)
		}
		ins.Reset()
		keys := stream(seed, 0)
		for i := 0; i < 256; i++ {
			l.Contains(g, keys.next()%ledgerNodes)
		}
		snap := ins.Snapshot()
		ms = append(ms, metric{Name: "reclaim.loads_per_node." + sc.name, Unit: "loads/node", Value: snap.PerVisitLoads(), N: int(snap.Visits)})
		if sc.id != smr.EBR { // EBR's Protect never stores
			ms = append(ms, metric{Name: "reclaim.stores_per_node." + sc.name, Unit: "stores/node", Value: snap.PerVisitStores(), N: int(snap.Visits)})
		}
		g.Unregister()
		l.Drain()
	}
	return ms
}
