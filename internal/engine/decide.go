package engine

import "repro/internal/core"

// algo is the Scheduler procedure of Algorithm 1 for one item, written
// once for both MT(k) engines: the holder choice of lines 5-6, the read
// arm with the line-9 slot-in, the write arm with the Thomas rule,
// Set(j, i) with its trace events, and the Section III-D-4 raise and
// reseed. It never looks a transaction up and never locks one: the
// engine resolves the (at most three) transactions of a step to their
// vectors first — from its VectorTable, or from the txnEntries it has
// locked — and applies the successor flags and the RT/WT repin the
// decision reports afterwards. Whether a counter lock is held around an
// encode or a reseed is the column state's business.
type algo struct {
	opts *Options
	cols *columns
}

// newAlgo binds the decision to an engine's options and column state,
// wiring the monotonic-encoding ablation and the assignment trace into
// the columns.
func newAlgo(opts *Options, cols *columns) algo {
	cols.Monotonic = opts.MonotonicEncoding
	if trace := opts.Trace; trace != nil {
		cols.OnAssign = func(id, pos int, val int64) {
			trace(core.Event{Kind: core.EvAssign, Txn: id, Pos: pos, Val: val})
		}
	}
	return algo{opts: opts, cols: cols}
}

// itemStep is one item x of an operation as the decision sees it: RT(x),
// WT(x) and the stepping transaction i with their vectors, and what the
// decision asks of the engine once it returns.
type itemStep struct {
	rt, wt, i    int
	vrt, vwt, vi *core.Vector
	// succ is i's successor flag: some accepted step was ordered after
	// TS(i) since it was last flushed, so i cannot be raised.
	succ bool
	// shift asks for the hot-item right-shifted encoding of x.
	shift bool

	// flagRT and flagWT ask the engine to set the holder's successor
	// flag (StarvationAvoidance only): an accepted step of i was ordered
	// after it.
	flagRT, flagWT bool
	// holder reports that i becomes RT(x) (a read) or WT(x) (a write).
	// The engine repins after it has set the flags: the repin may
	// reclaim the old holder.
	holder bool
}

// before reports whether TS(a) < TS(b) is established for the vectors of
// two transactions (false for the same one).
func before(a, b *core.Vector) bool { return a != b && a.Less(b) }

// decide is the Scheduler procedure of Algorithm 1 for one item; on
// Reject the int names the blocker.
func (a *algo) decide(x *itemStep, read bool) (core.Verdict, int) {
	// Lines 5-6: j := RT(x) or WT(x), whichever has the larger timestamp.
	// The two are always comparable for the same item because reads and
	// writes of x conflict pairwise.
	j, vj := x.rt, x.vrt
	if before(x.vrt, x.vwt) {
		j, vj = x.wt, x.vwt
	}
	if a.setDep(j, x.i, vj, x.vi, x.shift) || a.raise(x, j, vj) {
		// Both holders are now ordered before i: the smaller one only
		// through the vector order, which a raise of it would break just
		// the same.
		x.flagRT, x.flagWT = a.follows(x.rt, x.i), a.follows(x.wt, x.i)
		x.holder = true
		return core.Accept, 0
	}
	if read {
		// Line 9: the read may slot between the most recent write and the
		// most recent read without becoming the most recent reader: after
		// WT(x), before RT(x). Under StarvationAvoidance only a flagged i
		// gets here (an unflagged one was raised), so i being ordered
		// before RT(x) needs no flag of its own; the same holds for the
		// Thomas rule below, which orders i before WT(x).
		if j == x.rt {
			var after bool
			if a.opts.RelaxedReadCheck {
				after = a.setDep(x.wt, x.i, x.vwt, x.vi, x.shift)
			} else {
				after = before(x.vwt, x.vi)
			}
			if after {
				x.flagWT = a.follows(x.wt, x.i)
				return core.Accept, 0
			}
		}
		return core.Reject, j
	}
	// Thomas write rule: if TS(RT(x)) < TS(i) < TS(WT(x)), the write is
	// obsolete and can be ignored.
	if a.opts.ThomasWriteRule && j == x.wt && before(x.vi, x.vwt) &&
		a.setDep(x.rt, x.i, x.vrt, x.vi, x.shift) {
		x.flagRT = a.follows(x.rt, x.i)
		return core.AcceptIgnored, 0
	}
	return core.Reject, j
}

// setDep is Set(j, i) over the two transactions' vectors; shift asks for
// the hot-item right-shifted encoding of the item whose access created
// the dependency.
func (a *algo) setDep(j, i int, vj, vi *core.Vector, shift bool) bool {
	if j == i {
		return true
	}
	rel, _ := vj.Compare(vi)
	if rel == core.Greater {
		return false
	}
	if rel == core.Less {
		if a.opts.Trace != nil {
			a.opts.Trace(core.Event{Kind: core.EvEstablished, J: j, I: i})
		}
		return true
	}
	if !a.cols.encode(j, i, vj, vi, shift) {
		return false
	}
	if a.opts.Trace != nil {
		a.opts.Trace(core.Event{Kind: core.EvEncode, J: j, I: i})
	}
	return true
}

// follows reports whether, under StarvationAvoidance, an accepted step
// of i ordered after holder h must flag h. T_0 needs no flag: it is
// never raised.
func (a *algo) follows(h, i int) bool {
	return a.opts.StarvationAvoidance && h != i && h != 0
}

// raise is the III-D-4 restart without the abort: Set(j, i) failed, but
// no accepted step was ordered after TS(i) yet — i is a sink of the
// conflict graph — so TS(i) is reseeded past j exactly as Abort's
// starvation fix would do it, and Set(j, i) runs again. Every relation
// TS(w) < TS(i) survives the reseed, and none of the form TS(i) < TS(w)
// existed. Set failing means TS(j) > TS(i) is established, so TS(j,1) is
// defined and the seed exceeds it: the second Set holds. i's flag is
// already clear, and the reseed leaves it so.
func (a *algo) raise(x *itemStep, j int, vj *core.Vector) bool {
	if !a.opts.StarvationAvoidance || x.succ {
		return false
	}
	a.reseed(x.i, x.vi, vj.Elem(1).V)
	return a.setDep(j, x.i, vj, x.vi, x.shift)
}

// restartFloor is Abort's half of the starvation fix: under
// StarvationAvoidance, against a blocker other than T_0 whose vector vb
// is live and has a first element, it returns that element, past which
// Abort reseeds the vector and keeps it for the restart. The engine
// passes a nil vb for a blocker whose vector was reclaimed: it must look
// the blocker up without creating it, or the dead id would come back
// with an all-undefined vector nothing ever reclaims.
func (a *algo) restartFloor(blocker int, vb *core.Vector) (int64, bool) {
	if !a.opts.StarvationAvoidance || blocker == 0 || vb == nil {
		return 0, false
	}
	b := vb.Elem(1)
	return b.V, b.Defined
}

// reseed flushes TS(i) and seeds its first element past floor (the
// blocker's first element) and past the column-1 clock: the restarted
// incarnation dominates every vector assigned so far (the paper requires
// only TS(j,1)+1; seeding to the clock additionally prevents the restart
// from being leapfrogged by the rest of the population, matching the
// fresh-timestamp behaviour of TO restarts). Both seeds dominate the old
// vector, so established w < TS(i) relations survive. The flushed
// vector has no successor: the engine clears i's flag after an Abort.
func (a *algo) reseed(i int, vi *core.Vector, floor int64) {
	seed := a.cols.reseed(i, vi, floor)
	if a.opts.Trace != nil {
		a.opts.Trace(core.Event{Kind: core.EvFlush, Txn: i, Val: seed})
	}
}
