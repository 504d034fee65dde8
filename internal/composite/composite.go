// Package composite implements the composite protocol MT(k⁺) of Section
// IV (Algorithm 2), which recognizes TO(k⁺) = TO(1) ∪ TO(2) ∪ … ∪ TO(k).
// Unlike the individual classes TO(h), the composite classes are totally
// ordered by inclusion: TO(1⁺) ⊂ TO(2⁺) ⊂ … ⊂ TO(k⁺), so MT(k⁺) is
// guaranteed to allow higher concurrency as the vector size grows.
//
// The scheduler runs the subprotocols MT(1), …, MT(k) side by side. An
// operation is accepted as long as at least one still-running subprotocol
// accepts it; a subprotocol that rejects an operation is stopped for the
// rest of the log (its class can no longer contain the log). When every
// subprotocol has stopped the operation is rejected — Algorithm 2 then
// aborts the active transactions and rolls back.
//
// Theorem 5 shows the corresponding vector prefixes of any two
// subprotocols agree whenever both are alive, which is what allows the
// PREFIX/LASTCOL shared-table layout of Fig. 9-10; SharedPrefixSize
// reports the sharing this scheduler actually exhibits.
package composite

import (
	"slices"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/intern"
	"repro/internal/oplog"
)

// Options configures MT(k⁺).
type Options struct {
	// K is the largest subprotocol dimension; subprotocols MT(1)..MT(K)
	// run side by side.
	K int
	// Sub carries per-subprotocol options applied to every MT(h)
	// (ThomasWriteRule, RelaxedReadCheck, ...). Sub.K is ignored, and so
	// is Sub.StarvationAvoidance: its in-place raise would let MT(h)
	// accept logs outside TO(h) and keep a stopped subprotocol alive, and
	// its abort reseed never fires here, since a composite reject names
	// no blocker.
	Sub engine.Options
}

// Scheduler is the MT(k⁺) composite concurrency controller. The
// subprotocols share one item-intern table, so an operation's item is
// resolved once and every MT(h) indexes its RT/WT state by the same id.
type Scheduler struct {
	subs  []*engine.Scheduler // subs[h-1] runs MT(h)
	alive []bool
	names *intern.Table
}

// Decision is the composite scheduling outcome for one operation.
type Decision struct {
	Op oplog.Op
	// Verdict is Accept if at least one alive subprotocol accepted,
	// Reject when all subprotocols are stopped.
	Verdict core.Verdict
	// AcceptedBy lists the dimensions whose subprotocol accepted the
	// operation; StoppedNow lists the dimensions stopped by this
	// operation.
	AcceptedBy []int
	StoppedNow []int
}

// NewScheduler returns an MT(k⁺) scheduler with all k subprotocols
// started (Algorithm 2 step 0) and an item-intern table of its own.
func NewScheduler(opts Options) *Scheduler { return NewSchedulerInterned(opts, intern.New()) }

// NewSchedulerInterned returns an MT(k⁺) scheduler that shares the
// given intern table (the backing store's, so its ids are the
// runtime's).
func NewSchedulerInterned(opts Options, names *intern.Table) *Scheduler {
	if opts.K < 1 {
		panic("composite: Options.K must be >= 1")
	}
	s := &Scheduler{alive: make([]bool, opts.K), names: names}
	for h := 1; h <= opts.K; h++ {
		sub := opts.Sub
		sub.K = h
		sub.StarvationAvoidance = false
		s.subs = append(s.subs, engine.NewSchedulerInterned(sub, names))
		s.alive[h-1] = true
	}
	return s
}

// K returns the largest subprotocol dimension.
func (s *Scheduler) K() int { return len(s.subs) }

// Alive returns the dimensions of the still-running subprotocols.
func (s *Scheduler) Alive() []int {
	var out []int
	for h := 1; h <= len(s.subs); h++ {
		if s.alive[h-1] {
			out = append(out, h)
		}
	}
	return out
}

// Sub returns the MT(h) subprotocol scheduler (1-based), alive or not.
func (s *Scheduler) Sub(h int) *engine.Scheduler { return s.subs[h-1] }

// Step schedules one operation in log notation: its items go through
// the id-form step one by one (a subprotocol that rejects an item sees
// no later one), and the decision reports which subprotocols survived.
func (s *Scheduler) Step(op oplog.Op) Decision {
	d := Decision{Op: op, Verdict: core.Reject}
	before := slices.Clone(s.alive)
	for _, x := range op.Items {
		s.stepItem(op.Txn, s.names.ID(x), op.Kind == oplog.Read)
	}
	for h, was := range before {
		switch {
		case s.alive[h]:
			d.Verdict = core.Accept
			d.AcceptedBy = append(d.AcceptedBy, h+1)
		case was:
			d.StoppedNow = append(d.StoppedNow, h+1)
		}
	}
	return d
}

// StepReadID schedules a read of one interned item through every alive
// subprotocol: Accept if at least one accepted, Reject when all are
// stopped. A composite reject names no blocker.
func (s *Scheduler) StepReadID(txn int, id int32) (core.Verdict, int) {
	return s.stepItem(txn, id, true), 0
}

// StepWriteID is the write analogue of StepReadID.
func (s *Scheduler) StepWriteID(txn int, id int32) (core.Verdict, int) {
	return s.stepItem(txn, id, false), 0
}

func (s *Scheduler) stepItem(txn int, id int32, read bool) core.Verdict {
	verdict := core.Reject
	for h, sub := range s.subs {
		if !s.alive[h] {
			continue
		}
		var v core.Verdict
		if read {
			v, _ = sub.StepReadID(txn, id)
		} else {
			v, _ = sub.StepWriteID(txn, id)
		}
		if v == core.Reject {
			// The log has left TO(h+1): stop the subprotocol for good.
			s.alive[h] = false
			continue
		}
		verdict = core.Accept
	}
	return verdict
}

// Commit forwards the commit to the alive subprotocols (storage
// reclamation).
func (s *Scheduler) Commit(i int) {
	for h := range s.subs {
		if s.alive[h] {
			s.subs[h].Commit(i)
		}
	}
}

// Abort forwards the abort to the alive subprotocols.
func (s *Scheduler) Abort(i, blocker int) {
	for h := range s.subs {
		if s.alive[h] {
			s.subs[h].Abort(i, blocker)
		}
	}
}

// AcceptLog runs a complete log, returning (true, -1) on full acceptance
// or (false, i) with the index of the rejected operation.
func (s *Scheduler) AcceptLog(l *oplog.Log) (bool, int) {
	for idx, op := range l.Ops {
		if d := s.Step(op); d.Verdict == core.Reject {
			return false, idx
		}
	}
	return true, -1
}

// Accepts reports whether the log is in TO(k⁺).
func Accepts(k int, l *oplog.Log) bool {
	ok, _ := NewScheduler(Options{K: k}).AcceptLog(l)
	return ok
}

// Watermarks returns the composite's monotone counter-consumption
// watermarks: the max over the subprotocols' engine watermarks. An
// epoch restart replaces the subprotocols with fresh counters, so the
// instantaneous max can drop — the WAL writer's monotone clamp keeps
// the persisted pair valid.
func (s *Scheduler) Watermarks() (lo, hi int64) {
	for _, sub := range s.subs {
		l, u := sub.Watermarks()
		lo, hi = max(lo, l), max(hi, u)
	}
	return lo, hi
}

// RaiseWatermarks lifts every subprotocol's counters to at least the
// given watermarks (recovery seeding), raise-only.
func (s *Scheduler) RaiseWatermarks(lo, hi int64) {
	for _, sub := range s.subs {
		sub.RaiseWatermarks(lo, hi)
	}
}

// SharedPrefixSize returns, for transaction i and subprotocol pair
// (h1 < h2), the length of the longest common prefix of the two vectors
// maintained for T_i. Theorem 5 guarantees this is at least
// min(h1, h2) - 1 while both subprotocols are alive.
func (s *Scheduler) SharedPrefixSize(i, h1, h2 int) int {
	v1 := s.subs[h1-1].Vector(i)
	v2 := s.subs[h2-1].Vector(i)
	n := v1.K()
	if v2.K() < n {
		n = v2.K()
	}
	shared := 0
	for m := 1; m <= n; m++ {
		a, b := v1.Elem(m), v2.Elem(m)
		if a.Defined != b.Defined || (a.Defined && a.V != b.V) {
			break
		}
		shared++
	}
	return shared
}
