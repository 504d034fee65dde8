// Package engine is the protocol kernel shared by every scheduler in
// the multidimensional-timestamp family: one implementation of
// Algorithm 1's vector table, the Set(j, i) dependency encoding, the
// lcount/ucount counter-column management, the starvation fix and the
// Thomas-write-rule handling — parameterized by a ColumnAllocator
// (where counter-column values come from) and a locking discipline
// (the caller-serialized coarse Scheduler vs. the latch-striped
// Striped). MT(k), MT(k+), MT(k1,k2) and DMT(k) are all thin
// disciplines over this package; none of them re-implements
// validation or counter allocation.
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
	s.tab.Monotonic = opts.MonotonicEncoding
	if opts.Trace != nil {
		s.tab.OnAssign = func(id, pos int, val int64) {
			opts.Trace(core.Event{Kind: core.EvAssign, Txn: id, Pos: pos, Val: val})
		}
	}
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

// setDep is Set(j, i); shift asks for the hot-item right-shifted
// encoding of the item whose access created the dependency.
func (s *Scheduler) setDep(j, i int, shift bool) bool {
	if j == i {
		return true
	}
	rel, _ := s.tab.Vector(j).Compare(s.tab.Vector(i))
	if rel == core.Greater {
		return false
	}
	if rel == core.Less {
		if s.opts.Trace != nil {
			s.opts.Trace(core.Event{Kind: core.EvEstablished, J: j, I: i})
		}
		return true
	}
	if !s.tab.Set(j, i, shift) {
		return false
	}
	if s.opts.Trace != nil {
		s.opts.Trace(core.Event{Kind: core.EvEncode, J: j, I: i})
	}
	return true
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

// stepItem is the Scheduler procedure of Algorithm 1 for one item.
func (s *Scheduler) stepItem(i int, id int32, read bool) (core.Verdict, int) {
	s.holders.Live(i)
	s.access = cover(s.access, id)
	s.access[id]++
	shift := s.hotID(id)
	rt, wt := s.holders.Of(id)
	// Lines 5-6: j := RT(x) or WT(x), whichever has the larger timestamp.
	// The two are always comparable for the same item because reads and
	// writes of x conflict pairwise.
	j := rt
	if s.less(rt, wt) {
		j = wt
	}
	if read {
		if s.setDep(j, i, shift) || s.raise(j, i, shift) {
			// Both holders are now ordered before i: the smaller one only
			// through the vector order, which a raise of it would break
			// just the same. Flag them before the repin, which may
			// reclaim the old holder.
			s.follow(rt, i)
			s.follow(wt, i)
			s.holders.SetRT(id, i)
			return core.Accept, 0
		}
		// Line 9: the read may slot between the most recent write and the
		// most recent read without becoming the most recent reader: after
		// WT(x), before RT(x). Under StarvationAvoidance only a flagged i
		// gets here (an unflagged one was raised), so i being ordered
		// before RT(x) needs no flag of its own; the same holds for the
		// Thomas rule below, which orders i before WT(x).
		if j == rt {
			if s.opts.RelaxedReadCheck {
				if s.setDep(wt, i, shift) {
					s.follow(wt, i)
					return core.Accept, 0
				}
			} else if s.less(wt, i) {
				s.follow(wt, i)
				return core.Accept, 0
			}
		}
		return core.Reject, j
	}
	if s.setDep(j, i, shift) || s.raise(j, i, shift) {
		s.follow(rt, i)
		s.follow(wt, i)
		s.holders.SetWT(id, i)
		return core.Accept, 0
	}
	// Thomas write rule: if TS(RT(x)) < TS(i) < TS(WT(x)), the write is
	// obsolete and can be ignored.
	if s.opts.ThomasWriteRule && j == wt && s.less(i, wt) && s.setDep(rt, i, shift) {
		s.follow(rt, i)
		return core.AcceptIgnored, 0
	}
	return core.Reject, j
}

// follow records, under StarvationAvoidance, that an accepted step of i
// was ordered after holder h. T_0 needs no record: it is never raised.
func (s *Scheduler) follow(h, i int) {
	if s.opts.StarvationAvoidance && h != i && h != 0 {
		s.succ[h] = true
	}
}

// raise is the III-D-4 restart without the abort: Set(j, i) failed, but
// no accepted step was ordered after TS(i) yet — i is a sink of the
// conflict graph — so TS(i) is reseeded past j exactly as Abort's
// starvation fix would do it, and Set(j, i) runs again. Every relation
// TS(w) < TS(i) survives the reseed, and none of the form TS(i) < TS(w)
// existed. Set failing means TS(j) > TS(i) is established, so TS(j,1) is
// defined and the seed exceeds it: the second Set holds.
func (s *Scheduler) raise(j, i int, shift bool) bool {
	if !s.opts.StarvationAvoidance || s.succ[i] {
		return false
	}
	s.reseed(i, s.tab.Vector(j).Elem(1).V)
	return s.setDep(j, i, shift)
}

// reseed flushes TS(i) and seeds its first element past floor (the
// blocker's first element) and past the column-1 clock. The flushed
// vector has no successor.
func (s *Scheduler) reseed(i int, floor int64) {
	seed := s.tab.ReseedFirst(i, floor)
	delete(s.succ, i)
	if s.opts.Trace != nil {
		s.opts.Trace(core.Event{Kind: core.EvFlush, Txn: i, Val: seed})
	}
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
	if s.opts.StarvationAvoidance && blocker != 0 {
		b := s.tab.Vector(blocker).Elem(1)
		if b.Defined {
			// Seed past the blocker AND past the column-1 clock: the
			// restarted incarnation dominates every vector assigned so
			// far (the paper requires only TS(j,1)+1; seeding to the
			// clock additionally prevents the restart from being
			// leapfrogged by the rest of the population, matching the
			// fresh-timestamp behaviour of TO restarts). Both seeds
			// dominate the old vector, so established w < TS(i)
			// relations survive. ReseedFirst keeps the counter column
			// consistent when k = 1.
			s.reseed(i, b.V)
			// The seeded vector must survive for the restart.
			return
		}
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
