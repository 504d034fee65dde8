package engine

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// VectorTable is the timestamp table of Fig. 2: a set of k-dimensional
// timestamp vectors indexed by an integer id (transaction or, in the
// nested protocol, group), together with the column state (lcount/ucount
// and the per-column clocks) that keeps the k-th column distinct. It
// implements the dependency-encoding procedure Set(j, i) of Algorithm 1
// via the shared kernel (encode.go); the MT(k) Scheduler and the
// group-level table of MT(k1,k2) are both built on it.
//
// Id 0 is the virtual transaction/group T_0 with TS(0) = <0,*,...,*>.
type VectorTable struct {
	vec map[int]*core.Vector
	columns
}

// NewVectorTable returns a table of k-element vectors with TS(0) installed.
func NewVectorTable(k int) *VectorTable {
	if k < 1 {
		panic("engine: vector size must be >= 1")
	}
	t := &VectorTable{vec: make(map[int]*core.Vector), columns: newColumns(k, nil)}
	t0 := core.NewVector(k)
	t0.SetElem(1, 0)
	t.vec[0] = t0
	return t
}

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

// ReseedFirst implements the table side of the starvation fix (see
// columns.reseed) on id's vector and returns the seeded value.
func (t *VectorTable) ReseedFirst(id int, floor int64) int64 {
	return t.reseed(id, t.Vector(id), floor)
}

// Less reports whether TS(a) < TS(b) is established.
func (t *VectorTable) Less(a, b int) bool {
	if a == b {
		return false
	}
	return t.Vector(a).Less(t.Vector(b))
}

// Set implements procedure Set(j, i): establish or encode TS(j) < TS(i),
// reporting success. When shift is true the dependency is pushed toward
// the right end of the vectors (the Section III-D-5 optimized encoding for
// hot items) whenever possible.
func (t *VectorTable) Set(j, i int, shift bool) bool {
	return t.encode(j, i, t.Vector(j), t.Vector(i), shift)
}

// columns is the column state of one timestamp table, written once for
// VectorTable and the Striped scheduler: the lcount/ucount pair that
// keeps column k distinct, the per-column clocks, and the element
// assignment, "greater" value and starvation reseed every Set(j, i) of
// the table goes through.
type columns struct {
	k        int
	counters *LocalCounters
	// clock[m] tracks the largest value assigned in column m+1: the
	// starvation reseed seeds past column 1's, and the monotonic-encoding
	// ablation past every column's.
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
	// mu, when non-nil, is the counter lock: it guards everything above
	// and the sink for the duration of an encode or a reseed (the Striped
	// scheduler's, taken last). Nil when the caller serializes.
	mu *sync.Mutex
	// sink is the one reusable encode sink: encode passes its address, so
	// an encode boxes no fresh Sink value.
	sink columnSink
}

func newColumns(k int, mu *sync.Mutex) columns {
	return columns{k: k, counters: NewLocalCounters(), clock: make([]int64, k), mu: mu}
}

func (c *columns) lock() {
	if c.mu != nil {
		c.mu.Lock()
	}
}

func (c *columns) unlock() {
	if c.mu != nil {
		c.mu.Unlock()
	}
}

// K returns the vector size.
func (c *columns) K() int { return c.k }

// Counters returns the current (lcount, ucount).
func (c *columns) Counters() (lo, hi int64) { return c.counters.Counters() }

// Clock returns the largest value ever assigned in column m (1-based),
// or 0. The starvation fix reseeds past it so a restarted transaction is
// not leapfrogged by the whole population again.
func (c *columns) Clock(m int) int64 { return c.clock[m-1] }

// SetCounters overrides the counters (table reproduction and tests).
func (c *columns) SetCounters(lo, hi int64) { c.counters.SetCounters(lo, hi) }

// Watermarks returns the monotone counter-consumption watermarks (see
// LocalCounters.Watermarks), the pair durable schedulers journal.
func (c *columns) Watermarks() (lo, hi int64) {
	c.lock()
	defer c.unlock()
	return c.counters.Watermarks()
}

// RaiseWatermarks lifts the counters to at least the given watermarks
// (recovery seeding) in one raise-only clamp.
func (c *columns) RaiseWatermarks(lo, hi int64) {
	c.lock()
	defer c.unlock()
	c.counters.Raise(lo, hi)
}

// assign sets element pos of id's vector v.
func (c *columns) assign(id int, v *core.Vector, pos int, val int64) {
	v.SetElem(pos, val)
	if val > c.clock[pos-1] {
		c.clock[pos-1] = val
	}
	if c.OnAssign != nil {
		c.OnAssign(id, pos, val)
	}
}

// upper returns the value for a fresh "greater" element in column m:
// floor+1 normally, or past the column clock under monotonic encoding.
func (c *columns) upper(m int, floor int64) int64 {
	v := floor + 1
	if c.Monotonic && c.clock[m-1]+1 > v {
		v = c.clock[m-1] + 1
	}
	return v
}

// reseed is the table side of the starvation fix: it flushes id's
// vector v and seeds element 1 to a value strictly greater than both
// floor and every value previously assigned in column 1. When k = 1,
// column 1 is the distinct counter column, so the seed is allocated from
// ucount (and bumps it) to preserve uniqueness — writing an arbitrary
// value there collides with future counter allocations and corrupts the
// table. Returns the seeded value.
func (c *columns) reseed(id int, v *core.Vector, floor int64) int64 {
	c.lock()
	defer c.unlock()
	seed := floor + 1
	if cl := c.clock[0] + 1; cl > seed {
		seed = cl
	}
	if c.k == 1 {
		seed = c.counters.ReserveAtLeast(seed)
	}
	v.Reset()
	c.assign(id, v, 1, seed)
	return seed
}

// encode runs the kernel's Set(j, i) over the vectors vj and vi of j
// and i, under the counter lock when there is one, so the lcount/ucount
// interaction stays atomic.
func (c *columns) encode(j, i int, vj, vi *core.Vector, shift bool) bool {
	c.lock()
	c.sink = columnSink{c: c, j: j, i: i, vj: vj, vi: vi}
	ok := Dep{
		J: j, I: i,
		VJ: vj, VI: vi,
		K:     c.k,
		Alloc: c.counters,
		Sink:  &c.sink,
		Shift: shift,
	}.Encode()
	c.unlock()
	return ok
}

// columnSink routes kernel assignments through the column state's
// assign (clock plus OnAssign hook) and its upper rule (monotonic
// ablation).
type columnSink struct {
	c      *columns
	j, i   int
	vj, vi *core.Vector
}

func (s *columnSink) Assign(side Side, pos int, val int64) {
	if side == SideJ {
		s.c.assign(s.j, s.vj, pos, val)
	} else {
		s.c.assign(s.i, s.vi, pos, val)
	}
}

func (s *columnSink) Upper(m int, floor int64) int64 { return s.c.upper(m, floor) }
