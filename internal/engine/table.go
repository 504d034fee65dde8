package engine

import (
	"fmt"

	"repro/internal/core"
)

// VectorTable is the timestamp table of Fig. 2: a set of k-dimensional
// timestamp vectors indexed by an integer id (transaction or, in the
// nested protocol, group), together with the lcount/ucount counters that
// keep the k-th column distinct. It implements the dependency-encoding
// procedure Set(j, i) of Algorithm 1 via the shared kernel (encode.go);
// the MT(k) Scheduler and the group-level table of MT(k1,k2) are both
// built on it.
//
// Id 0 is the virtual transaction/group T_0 with TS(0) = <0,*,...,*>.
type VectorTable struct {
	k        int
	vec      map[int]*core.Vector
	counters *LocalCounters
	// clock[m] tracks the largest value assigned in column m+1, used by
	// the monotonic-encoding ablation.
	clock []int64
	// Monotonic switches element assignment to Lamport-style values:
	// every new upper value exceeds everything previously assigned in its
	// column. This removes the protocol's spurious rejections (a
	// transaction pinned to a small element by a shallow conflict chain
	// can meet a deeper chain's larger element even in a serial run), but
	// deliberately destroys the paper's Example 1 behaviour, where T2 and
	// T3 must receive EQUAL elements. Off by default; used as an ablation.
	Monotonic bool
	// OnAssign, when non-nil, observes every element assignment.
	OnAssign func(id, pos int, val int64)
	// sink is the one reusable encode sink: Set passes its address, so an
	// encode boxes no fresh Sink value.
	sink tableSink
}

// NewVectorTable returns a table of k-element vectors with TS(0) installed.
func NewVectorTable(k int) *VectorTable {
	if k < 1 {
		panic("engine: vector size must be >= 1")
	}
	t := &VectorTable{k: k, vec: make(map[int]*core.Vector), counters: NewLocalCounters(), clock: make([]int64, k)}
	t0 := core.NewVector(k)
	t0.SetElem(1, 0)
	t.vec[0] = t0
	return t
}

// K returns the vector size.
func (t *VectorTable) K() int { return t.k }

// Counters returns the current (lcount, ucount).
func (t *VectorTable) Counters() (lo, hi int64) { return t.counters.Counters() }

// Clock returns the largest value ever assigned in column m (1-based),
// or 0. The starvation fix reseeds past it so a restarted transaction is
// not leapfrogged by the whole population again.
func (t *VectorTable) Clock(m int) int64 { return t.clock[m-1] }

// SetCounters overrides the counters (table reproduction and tests).
func (t *VectorTable) SetCounters(lo, hi int64) { t.counters.SetCounters(lo, hi) }

// Watermarks returns the monotone counter-consumption watermarks (see
// LocalCounters.Watermarks), the pair durable schedulers journal.
func (t *VectorTable) Watermarks() (lo, hi int64) { return t.counters.Watermarks() }

// RaiseWatermarks lifts the counters to at least the given watermarks
// (recovery seeding), raise-only.
func (t *VectorTable) RaiseWatermarks(lo, hi int64) { t.counters.Raise(lo, hi) }

// Vector returns the live vector for id, creating an all-undefined one on
// demand.
func (t *VectorTable) Vector(id int) *core.Vector {
	if v, ok := t.vec[id]; ok {
		return v
	}
	v := core.NewVector(t.k)
	t.vec[id] = v
	return v
}

// Seed installs an explicit vector (tests and table reproduction).
func (t *VectorTable) Seed(id int, elems ...core.Elem) {
	if len(elems) != t.k {
		panic(fmt.Sprintf("engine: Seed needs %d elements, got %d", t.k, len(elems)))
	}
	t.vec[id] = core.VectorOf(elems...)
}

// Drop removes id's vector from the table (storage reclamation).
func (t *VectorTable) Drop(id int) { delete(t.vec, id) }

// Len returns the number of live vectors (including id 0).
func (t *VectorTable) Len() int { return len(t.vec) }

// Snapshot returns copies of all live vectors.
func (t *VectorTable) Snapshot() map[int]*core.Vector {
	out := make(map[int]*core.Vector, len(t.vec))
	for i, v := range t.vec {
		out[i] = v.Clone()
	}
	return out
}

// assign sets element pos of id's vector.
func (t *VectorTable) assign(id, pos int, val int64) {
	t.Vector(id).SetElem(pos, val)
	if val > t.clock[pos-1] {
		t.clock[pos-1] = val
	}
	if t.OnAssign != nil {
		t.OnAssign(id, pos, val)
	}
}

// upper returns the value for a fresh "greater" element in column m:
// floor+1 normally, or past the column clock under monotonic encoding.
func (t *VectorTable) upper(m int, floor int64) int64 {
	v := floor + 1
	if t.Monotonic && t.clock[m-1]+1 > v {
		v = t.clock[m-1] + 1
	}
	return v
}

// ReseedFirst implements the table side of the starvation fix: it
// flushes id's vector and seeds element 1 to a value strictly greater
// than both floor and every value previously assigned in column 1. When
// k = 1, column 1 is the distinct counter column, so the seed is
// allocated from ucount (and bumps it) to preserve uniqueness — writing
// an arbitrary value there collides with future counter allocations and
// corrupts the table. Returns the seeded value.
func (t *VectorTable) ReseedFirst(id int, floor int64) int64 {
	seed := floor + 1
	if c := t.clock[0] + 1; c > seed {
		seed = c
	}
	if t.k == 1 {
		seed = t.counters.ReserveAtLeast(seed)
	}
	v := t.Vector(id)
	v.Reset()
	t.assign(id, 1, seed)
	return seed
}

// Less reports whether TS(a) < TS(b) is established.
func (t *VectorTable) Less(a, b int) bool {
	if a == b {
		return false
	}
	return t.Vector(a).Less(t.Vector(b))
}

// tableSink routes kernel assignments through the table's assign (clock
// plus OnAssign hook) and its upper rule (monotonic ablation).
type tableSink struct {
	t    *VectorTable
	j, i int
}

func (s *tableSink) Assign(side Side, pos int, val int64) {
	if side == SideJ {
		s.t.assign(s.j, pos, val)
	} else {
		s.t.assign(s.i, pos, val)
	}
}

func (s *tableSink) Upper(m int, floor int64) int64 { return s.t.upper(m, floor) }

// Set implements procedure Set(j, i): establish or encode TS(j) < TS(i),
// reporting success. When shift is true the dependency is pushed toward
// the right end of the vectors (the Section III-D-5 optimized encoding for
// hot items) whenever possible.
func (t *VectorTable) Set(j, i int, shift bool) bool {
	t.sink = tableSink{t: t, j: j, i: i}
	return Dep{
		J: j, I: i,
		VJ: t.Vector(j), VI: t.Vector(i),
		K:     t.k,
		Alloc: t.counters,
		Sink:  &t.sink,
		Shift: shift,
	}.Encode()
}
