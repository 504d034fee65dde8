// Package engine is the protocol kernel shared by every scheduler in
// the multidimensional-timestamp family: one implementation of
// Algorithm 1's vector table, the Set(j, i) dependency encoding, the
// lcount/ucount counter-column management, the starvation fix and the
// Thomas-write-rule handling — parameterized by a ColumnAllocator
// (where counter-column values come from) and a locking discipline
// (the caller-serialized coarse Scheduler vs. the latch-striped
// Striped). The two MT(k) engines share one per-item decision (algo)
// and one column state (columns); each supplies only where its
// vectors, successor flags, RT/WT and access counts live and whether a
// counter lock is held. MT(k+), MT(k1,k2) and DMT(k) are thin
// disciplines over this package; none of them re-implements validation
// or counter allocation.
package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/intern"
	"repro/internal/oplog"
)

// Options configures an MT(k) scheduler.
type Options struct {
	// K is the timestamp vector size (k >= 1). Per Theorem 3, k = 2q-1
	// suffices for transactions of at most q operations.
	K int
	// ThomasWriteRule accepts-and-ignores obsolete writes when
	// TS(RT(x)) < TS(i) < TS(WT(x)) instead of aborting (Section III-D-6c).
	ThomasWriteRule bool
	// StarvationAvoidance applies the Section III-D-4 fix, in two places.
	// On Abort the vector is flushed and its first element seeded past
	// TS(blocker,1) (and the column-1 clock), so the restarted incarnation
	// runs after its blocker. And in place: a step that would be rejected
	// (or take the line-9 slot-in or the Thomas rule) from a transaction
	// that no accepted step has been ordered after yet gets the same
	// reseed and is re-run instead — the restart without the abort, safe
	// because such a transaction is a sink of the conflict graph.
	StarvationAvoidance bool
	// RelaxedReadCheck replaces the line-9 condition TS(WT(x)) < TS(i)
	// with Set(WT(x), i), allowing higher concurrency (Section III-D-2
	// closing remark).
	RelaxedReadCheck bool
	// HotItems marks items whose dependencies are encoded near the right
	// end of the vectors (optimized encoding, Section III-D-5).
	HotItems map[string]bool
	// HotThreshold, when > 0, dynamically treats an item as hot once its
	// access count reaches the threshold.
	HotThreshold int
	// MonotonicEncoding assigns Lamport-style (column-monotonic) element
	// values instead of the paper's relative TS(j,m)+1 values. This is an
	// engineering ablation: it eliminates the spurious rejections caused
	// by relative values meeting deeper conflict chains, at the cost of
	// the Example 1 behaviour (equal elements for unordered transactions)
	// and therefore of some of the protocol's late-binding concurrency.
	MonotonicEncoding bool
	// Trace, when non-nil, receives an Event for every element assignment,
	// dependency encoding and flush.
	Trace func(core.Event)
}

// Scheduler is the MT(k) concurrency controller of Algorithm 1 under
// the coarse locking discipline: it is not safe for concurrent use, the
// caller serializes access to it (the paper's scheduler processes one
// operation at a time). It stays the differential reference every other
// discipline and variant is checked against.
//
// Items are interned to dense ids: RT(x), WT(x), the access counts and
// the hot set are slices indexed by id, and StepReadID/StepWriteID are
// the scheduler procedure. Step speaks the paper's log notation on top
// of them.
type Scheduler struct {
	opts    Options
	k       int
	tab     *VectorTable // the TS table of Fig. 2
	names   *intern.Table
	holders *Holders // RT(x)/WT(x) and vector reclamation
	access  []int    // per-item access counts (hot-item detection)
	hot     []bool   // Options.HotItems by id
	// succ: some accepted step was ordered after txn since its vector
	// was last flushed (the raise's precondition; StarvationAvoidance
	// only, dropped with the vector).
	succ map[int]bool
	alg  algo // Algorithm 1 over tab's columns
}

// NewScheduler returns an initialized MT(k) scheduler with an item-intern
// table of its own. TS(0) = <0,*,...,*> represents the virtual
// transaction T_0 that read and wrote every item before all others;
// RT(x) = WT(x) = 0 for every x.
func NewScheduler(opts Options) *Scheduler { return NewSchedulerInterned(opts, intern.New()) }

// NewSchedulerInterned returns an MT(k) scheduler that shares the given
// intern table (the backing store's, so its ids are the runtime's).
func NewSchedulerInterned(opts Options, names *intern.Table) *Scheduler {
	if opts.K < 1 {
		panic("engine: Options.K must be >= 1")
	}
	s := &Scheduler{
		opts:  opts,
		k:     opts.K,
		tab:   NewVectorTable(opts.K),
		names: names,
		hot:   hotIDs(opts.HotItems, names),
	}
	s.holders = NewHolders(s.tab)
	if opts.StarvationAvoidance {
		s.succ = make(map[int]bool)
		s.holders.OnDrop = func(txn int) { delete(s.succ, txn) }
	}
	s.alg = newAlgo(&s.opts, &s.tab.columns)
	return s
}

// Table exposes the underlying timestamp table (read-mostly helpers).
func (s *Scheduler) Table() *VectorTable { return s.tab }

// K returns the vector size.
func (s *Scheduler) K() int { return s.k }

// Counters returns the current (lcount, ucount) pair, for tests.
func (s *Scheduler) Counters() (lo, hi int64) { return s.tab.Counters() }

// Watermarks returns the monotone counter-consumption watermarks the
// WAL journals. It takes no lock: the coarse discipline's owner already
// serializes access, and the WAL counter source runs under the store
// journal hook, inside the adapter's critical sections.
func (s *Scheduler) Watermarks() (lo, hi int64) { return s.tab.Watermarks() }

// RaiseWatermarks lifts the counters to at least the given watermarks
// (recovery seeding), raise-only.
func (s *Scheduler) RaiseWatermarks(lo, hi int64) { s.tab.RaiseWatermarks(lo, hi) }

// Vector returns a copy of TS(i). Unknown transactions have the
// all-undefined vector.
func (s *Scheduler) Vector(i int) *core.Vector { return s.tab.Vector(i).Clone() }

// Snapshot returns copies of all live timestamp vectors keyed by
// transaction id.
func (s *Scheduler) Snapshot() map[int]*core.Vector { return s.tab.Snapshot() }

// ReadPendingWriterID reports whether the item's most recent writer w
// (≠ i) is live per the callback and TS(i) < TS(w) is NOT established
// (see Striped.ReadPendingWriterID).
func (s *Scheduler) ReadPendingWriterID(i int, id int32, live func(int) bool) (blocker int, conflict bool) {
	_, w := s.holders.Of(id)
	if w == i || !live(w) || s.less(i, w) {
		return 0, false
	}
	return w, true
}

// WritePendingWriterID reports whether the item's most recent writer w
// (≠ i) is still live per the callback (see
// Striped.WritePendingWriterID).
func (s *Scheduler) WritePendingWriterID(i int, id int32, live func(int) bool) (blocker int, conflict bool) {
	_, w := s.holders.Of(id)
	if w == 0 || w == i || !live(w) {
		return 0, false
	}
	return w, true
}

// RT returns RT(x), the most recent reader of x (0 if none).
func (s *Scheduler) RT(x string) int {
	rt, _ := s.holders.Of(s.names.ID(x))
	return rt
}

// WT returns WT(x), the most recent writer of x (0 if none).
func (s *Scheduler) WT(x string) int {
	_, wt := s.holders.Of(s.names.ID(x))
	return wt
}

// less reports whether TS(a) < TS(b) is established.
func (s *Scheduler) less(a, b int) bool { return s.tab.Less(a, b) }

// hotID reports whether the item qualifies for right-shifted encoding.
func (s *Scheduler) hotID(id int32) bool {
	if int(id) < len(s.hot) && s.hot[id] {
		return true
	}
	return s.opts.HotThreshold > 0 && int(id) < len(s.access) && s.access[id] >= s.opts.HotThreshold
}

// Step schedules one atomic operation. Multi-item operations (the two-step
// model's set reads/writes) process their items in order; the first
// rejecting item rejects the whole operation.
func (s *Scheduler) Step(op oplog.Op) core.Decision {
	return StepOp(op, s.names, func(id int32) (core.Verdict, int) {
		return s.stepItem(op.Txn, id, op.Kind == oplog.Read)
	})
}

// StepOp runs an operation in log notation through an id-form step
// function, item by item: the one translation from names to ids the
// caller-serialized protocols share.
func StepOp(op oplog.Op, names *intern.Table, step func(id int32) (core.Verdict, int)) core.Decision {
	var ignored []string
	for _, x := range op.Items {
		switch v, blocker := step(names.ID(x)); v {
		case core.Reject:
			return core.Decision{Op: op, Verdict: core.Reject, Blocker: blocker, Item: x}
		case core.AcceptIgnored:
			ignored = append(ignored, x)
		}
	}
	verdict := core.Accept
	if len(ignored) == len(op.Items) {
		verdict = core.AcceptIgnored
	}
	return core.Decision{Op: op, Verdict: verdict, IgnoredItems: ignored}
}

// StepReadID runs the read arm of the Scheduler procedure for one
// interned item; on Reject the int names the blocker.
func (s *Scheduler) StepReadID(txn int, id int32) (core.Verdict, int) {
	return s.stepItem(txn, id, true)
}

// StepWriteID is the write-arm analogue of StepReadID.
func (s *Scheduler) StepWriteID(txn int, id int32) (core.Verdict, int) {
	return s.stepItem(txn, id, false)
}

// stepItem runs Algorithm 1 for one item over the table's vectors and
// the successor map, then repins the holder.
func (s *Scheduler) stepItem(i int, id int32, read bool) (core.Verdict, int) {
	s.holders.Live(i)
	s.access = cover(s.access, id)
	s.access[id]++
	rt, wt := s.holders.Of(id)
	x := itemStep{
		rt: rt, wt: wt, i: i,
		vrt: s.tab.Vector(rt), vwt: s.tab.Vector(wt), vi: s.tab.Vector(i),
		succ: s.succ[i], shift: s.hotID(id),
	}
	v, blocker := s.alg.decide(&x, read)
	if x.flagRT {
		s.succ[rt] = true
	}
	if x.flagWT {
		s.succ[wt] = true
	}
	switch {
	case !x.holder:
	case read:
		s.holders.SetRT(id, i)
	default:
		s.holders.SetWT(id, i)
	}
	return v, blocker
}

// Commit marks transaction i finished; its vector storage is reclaimed as
// soon as it stops being a most-recent read or write timestamp.
func (s *Scheduler) Commit(i int) { s.holders.Finish(i) }

// Abort discards transaction i. blocker is the Blocker from the rejecting
// Decision (0 if the abort had another cause). With StarvationAvoidance
// the vector is flushed and reseeded with TS(blocker,1)+1 so a restarted
// incarnation cannot be blocked by the same transaction again; otherwise
// the vector is treated like a committed one and reclaimed when unpinned.
func (s *Scheduler) Abort(i, blocker int) {
	if i == 0 {
		return
	}
	// The blocker's vector is read without creating it (see
	// algo.restartFloor).
	if floor, ok := s.alg.restartFloor(blocker, s.tab.vec[blocker]); ok {
		s.alg.reseed(i, s.tab.Vector(i), floor)
		delete(s.succ, i)
		return
	}
	s.holders.Finish(i)
}

// LiveVectors returns the number of vectors currently held in the table
// (including T_0), for storage-reclamation tests.
func (s *Scheduler) LiveVectors() int { return s.tab.Len() }

// SeedVector installs an explicit vector for transaction i. It exists to
// reproduce the paper's worked tables (which start mid-log, e.g. Table II's
// TS(4) = <1,4>) and for tests; production schedulers never need it.
func (s *Scheduler) SeedVector(i int, elems ...core.Elem) { s.tab.Seed(i, elems...) }

// SetCounters overrides the k-th-column counters, for table reproduction
// and tests.
func (s *Scheduler) SetCounters(lo, hi int64) { s.tab.SetCounters(lo, hi) }

// AcceptLog runs a complete log through a fresh continuation of the
// scheduler. It returns (true, -1) if every operation is accepted, or
// (false, i) where i is the index of the first rejected operation.
// Thomas-rule ignored writes count as accepted.
func (s *Scheduler) AcceptLog(l *oplog.Log) (bool, int) {
	for idx, op := range l.Ops {
		if d := s.Step(op); d.Verdict == core.Reject {
			return false, idx
		}
	}
	return true, -1
}

// Accepts reports whether MT(k) with the given options accepts the log,
// i.e. whether the log is in the class TO(k) (for default options).
func Accepts(k int, l *oplog.Log) bool {
	ok, _ := NewScheduler(Options{K: k}).AcceptLog(l)
	return ok
}

// SerialOrder returns a serialization order for the given transactions
// consistent with every established timestamp relation: a topological sort
// of the vectors (the paper's "topological sort of the corresponding
// timestamp vectors"). Transactions absent from the table keep their
// relative id order. The virtual transaction 0 is excluded.
func (s *Scheduler) SerialOrder(txns []int) []int {
	// Build the established-order graph over the given transactions.
	idx := make(map[int]int, len(txns))
	for p, t := range txns {
		if t == 0 {
			panic("engine: SerialOrder over the virtual transaction")
		}
		idx[t] = p
	}
	type edge struct{ u, v int }
	var edges []edge
	for a, pa := range idx {
		for b, pb := range idx {
			if a != b && s.less(a, b) {
				edges = append(edges, edge{pa, pb})
			}
		}
	}
	// Kahn with smallest-id preference for determinism.
	n := len(txns)
	indeg := make([]int, n)
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e.u] = append(adj[e.u], e.v)
		indeg[e.v]++
	}
	order := make([]int, 0, n)
	used := make([]bool, n)
	for len(order) < n {
		pick := -1
		for p := 0; p < n; p++ {
			if !used[p] && indeg[p] == 0 && (pick == -1 || txns[p] < txns[pick]) {
				pick = p
			}
		}
		if pick == -1 {
			panic(fmt.Sprintf("engine: established relations are cyclic over %v", txns))
		}
		used[pick] = true
		order = append(order, txns[pick])
		for _, v := range adj[pick] {
			indeg[v]--
		}
	}
	return order
}
