// Package nested implements the protocol MT(k1, k2) of Section V-A for
// nested/grouped transaction models, generalized to MT(k1, ..., kl) for a
// hierarchy of l levels. Transactions are statically partitioned into
// groups (and groups into supergroups, ...). Serializability is assured
// level by level: a dependency between two transactions is encoded at the
// coarsest level at which they belong to different units, using that
// level's timestamp table and the MT(k) encoding rules. Group dependencies
// are therefore antisymmetric — once G1 -> G2 is encoded, any operation
// implying G2 -> G1 is rejected.
package nested

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/intern"
	"repro/internal/oplog"
)

// Options configures a hierarchical MT(k1, ..., kl) scheduler.
type Options struct {
	// Ks[0] is the vector size of the transaction-level table (the
	// paper's k1); Ks[1] of the group level (k2); further entries add
	// supergroup levels. len(Ks) >= 1.
	Ks []int
	// UnitOf maps a transaction to its containing unit id at each level
	// >= 1 (UnitOf(t, 1) = group, UnitOf(t, 2) = supergroup, ...). It
	// must be static for the lifetime of a transaction and must map the
	// virtual transaction 0 to unit 0 at every level. Level 0 is the
	// transaction itself and is never queried. A nil UnitOf puts every
	// transaction in group 0 (reducing the protocol to MT(Ks[0])).
	UnitOf func(txn, lvl int) int
}

// Scheduler is the hierarchical multidimensional timestamp scheduler.
// It is not safe for concurrent use; the caller serializes access.
type Scheduler struct {
	opts   Options
	tables []*engine.VectorTable // tables[lvl]; lvl 0 = transactions
	names  *intern.Table
	// holders is RT(x)/WT(x) by item id. It reclaims a finished
	// transaction's level-0 vector by MT(k)'s pin-count rule; unit
	// vectors at the levels above are static and stay.
	holders *engine.Holders
}

// NewScheduler returns an initialized MT(k1, ..., kl) scheduler with an
// item-intern table of its own.
func NewScheduler(opts Options) *Scheduler { return NewSchedulerInterned(opts, intern.New()) }

// NewSchedulerInterned returns an MT(k1, ..., kl) scheduler that shares
// the given intern table (the backing store's, so its ids are the
// runtime's).
func NewSchedulerInterned(opts Options, names *intern.Table) *Scheduler {
	if len(opts.Ks) == 0 {
		panic("nested: Options.Ks must not be empty")
	}
	s := &Scheduler{opts: opts, names: names}
	for _, k := range opts.Ks {
		s.tables = append(s.tables, engine.NewVectorTable(k))
	}
	s.holders = engine.NewHolders(s.tables[0])
	return s
}

// New2Level is the paper's MT(k1, k2): transaction vectors of size k1,
// group vectors of size k2, with the given transaction-to-group map
// (transactions absent from the map form the default group 0 alongside
// the virtual transaction).
func New2Level(k1, k2 int, groups map[int]int) *Scheduler {
	return NewScheduler(Options{
		Ks: []int{k1, k2},
		UnitOf: func(txn, lvl int) int {
			return groups[txn]
		},
	})
}

// Levels returns the number of hierarchy levels.
func (s *Scheduler) Levels() int { return len(s.tables) }

// unit returns the id of txn's containing unit at the given level.
func (s *Scheduler) unit(txn, lvl int) int {
	if lvl == 0 {
		return txn
	}
	if s.opts.UnitOf == nil {
		return 0
	}
	return s.opts.UnitOf(txn, lvl)
}

// encodeLevel returns the coarsest level at which a and b belong to
// different units, or -1 if they are the same transaction.
func (s *Scheduler) encodeLevel(a, b int) int {
	if a == b {
		return -1
	}
	for lvl := len(s.tables) - 1; lvl >= 0; lvl-- {
		if s.unit(a, lvl) != s.unit(b, lvl) {
			return lvl
		}
	}
	// Distinct transactions always differ at level 0.
	panic(fmt.Sprintf("nested: distinct transactions %d and %d share all units", a, b))
}

// less reports whether a precedes b in the established hierarchical order.
func (s *Scheduler) less(a, b int) bool {
	lvl := s.encodeLevel(a, b)
	if lvl < 0 {
		return false
	}
	return s.tables[lvl].Less(s.unit(a, lvl), s.unit(b, lvl))
}

// set tries to establish or encode the dependency a -> b at the
// appropriate level, reporting success.
func (s *Scheduler) set(a, b int) bool {
	lvl := s.encodeLevel(a, b)
	if lvl < 0 {
		return true
	}
	return s.tables[lvl].Set(s.unit(a, lvl), s.unit(b, lvl), false)
}

// Watermarks returns the hierarchy's monotone counter-consumption
// watermarks: the max over the per-level tables' engine watermarks.
func (s *Scheduler) Watermarks() (lo, hi int64) {
	for _, t := range s.tables {
		l, u := t.Watermarks()
		lo, hi = max(lo, l), max(hi, u)
	}
	return lo, hi
}

// RaiseWatermarks lifts every level's counters to at least the given
// watermarks (recovery seeding), raise-only.
func (s *Scheduler) RaiseWatermarks(lo, hi int64) {
	for _, t := range s.tables {
		t.RaiseWatermarks(lo, hi)
	}
}

// LiveVectors returns the number of transaction-level vectors currently
// held (including T_0), for storage-reclamation tests.
func (s *Scheduler) LiveVectors() int { return s.tables[0].Len() }

// TxnVector returns a copy of the transaction-level vector TS(i).
func (s *Scheduler) TxnVector(i int) *core.Vector { return s.tables[0].Vector(i).Clone() }

// UnitVector returns a copy of the unit vector at the given level
// (GS(g) for lvl 1 in the 2-level protocol).
func (s *Scheduler) UnitVector(lvl, id int) *core.Vector {
	return s.tables[lvl].Vector(id).Clone()
}

// Step schedules one operation in log notation.
func (s *Scheduler) Step(op oplog.Op) core.Decision {
	return engine.StepOp(op, s.names, func(id int32) (core.Verdict, int) {
		return s.stepItem(op.Txn, id, op.Kind == oplog.Read)
	})
}

// StepReadID schedules a read of one interned item under the
// hierarchical protocol; on Reject the int names the blocker.
func (s *Scheduler) StepReadID(txn int, id int32) (core.Verdict, int) {
	return s.stepItem(txn, id, true)
}

// StepWriteID is the write analogue of StepReadID.
func (s *Scheduler) StepWriteID(txn int, id int32) (core.Verdict, int) {
	return s.stepItem(txn, id, false)
}

func (s *Scheduler) stepItem(i int, id int32, read bool) (core.Verdict, int) {
	s.holders.Live(i)
	rt, wt := s.holders.Of(id)
	// j := RT(x) or WT(x), whichever has the larger timestamp in the
	// hierarchical order (they are always comparable, like in MT(k)).
	j := rt
	if s.less(rt, wt) {
		j = wt
	}
	if s.set(j, i) {
		if read {
			s.holders.SetRT(id, i)
		} else {
			s.holders.SetWT(id, i)
		}
		return core.Accept, 0
	}
	// The line-9 analogue: a read may slot between the write and the read.
	if read && j == rt && s.less(wt, i) {
		return core.Accept, 0
	}
	return core.Reject, j
}

// Commit marks transaction i finished: its level-0 vector is reclaimed
// once no item names it as RT or WT.
func (s *Scheduler) Commit(i int) { s.holders.Finish(i) }

// Abort discards transaction i. The hierarchical tables have no
// flush-and-reseed machinery, so the blocker is not used: a restarted
// incarnation starts from a fresh vector unless an item still pins the
// old one.
func (s *Scheduler) Abort(i, blocker int) { s.holders.Finish(i) }

// AcceptLog runs a complete log, returning (true, -1) on full acceptance
// or (false, i) with the index of the first rejected operation.
func (s *Scheduler) AcceptLog(l *oplog.Log) (bool, int) {
	for idx, op := range l.Ops {
		if d := s.Step(op); d.Verdict == core.Reject {
			return false, idx
		}
	}
	return true, -1
}

// SerialOrder returns a serialization order of the given transactions
// consistent with the established hierarchical relations.
func (s *Scheduler) SerialOrder(txns []int) []int {
	n := len(txns)
	order := make([]int, 0, n)
	used := make([]bool, n)
	for len(order) < n {
		pick := -1
		for p := 0; p < n; p++ {
			if used[p] {
				continue
			}
			ok := true
			for q := 0; q < n; q++ {
				if !used[q] && q != p && s.less(txns[q], txns[p]) {
					ok = false
					break
				}
			}
			if ok && (pick == -1 || txns[p] < txns[pick]) {
				pick = p
			}
		}
		if pick == -1 {
			panic("nested: established relations are cyclic")
		}
		used[pick] = true
		order = append(order, txns[pick])
	}
	return order
}

// SignatureGroups implements the Example 6 partition rule: transactions
// with identical read/write item-set signatures share a group. It returns
// a transaction-to-group map suitable for New2Level; group ids start at 1
// in order of first appearance in the log.
func SignatureGroups(l *oplog.Log) map[int]int {
	sig := map[int]string{}
	for _, op := range l.Ops {
		key := op.Kind.String() + "{"
		for _, x := range op.Items {
			key += x + ","
		}
		key += "}"
		sig[op.Txn] += key
	}
	groupOf := map[string]int{}
	groups := map[int]int{}
	next := 1
	for _, t := range l.Transactions() {
		k := sig[t]
		if _, ok := groupOf[k]; !ok {
			groupOf[k] = next
			next++
		}
		groups[t] = groupOf[k]
	}
	return groups
}

// SiteGroups implements the Example 5 partition rule: transactions
// initiated at the same site share a group. siteOf maps a transaction to
// its site id (site ids must be >= 1; unknown transactions fall into the
// virtual group 0).
func SiteGroups(siteOf map[int]int) map[int]int {
	out := make(map[int]int, len(siteOf))
	for t, s := range siteOf {
		out[t] = s
	}
	return out
}
