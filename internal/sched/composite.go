package sched

import (
	"fmt"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/intern"
	"repro/internal/storage"
)

// Composite is MT(k⁺) at runtime (deferred writes): the composite
// protocol with Algorithm 2 step 4's epoch restart, under the shared
// adapter.
//
// Composite's aborts name no blocker — a reject means every
// subprotocol stopped, not that one transaction stood in the way — so
// AbortError.BlockerFinished stays false and the runtime keeps its
// jittered wait after them.
type Composite struct {
	*adapter
	proto *epochComposite
}

// NewComposite returns an MT(k⁺) runtime scheduler on the production
// path: item latches let storage accesses on disjoint items overlap.
// sub.StarvationAvoidance is ignored (see composite.Options.Sub).
func NewComposite(store *storage.Store, k int, sub engine.Options) *Composite {
	p := newEpochComposite(k, sub, store.Interner())
	return &Composite{newSerialAdapter(store, compositeFamily(k, ""), p), p}
}

// reference implements referencer.
func (c *Composite) reference(store *storage.Store) *MT {
	o := c.proto.opts
	return newReference(store, compositeFamily(o.K, "/coarse"), newEpochComposite(o.K, o.Sub, store.Interner()))
}

func compositeFamily(k int, variant string) family {
	return family{
		name:     fmt.Sprintf("MT(%d+)%s", k, variant),
		deferred: true,
		rejected: "all subprotocols stopped",
	}
}

// Protocol exposes the current composite scheduler (tests and
// diagnostics; epoch restarts swap it, so quiesce before calling).
func (c *Composite) Protocol() *composite.Scheduler { return c.proto.cur }

// epochComposite is composite.Scheduler as a kernel, plus Algorithm 2
// step 4: when every subprotocol has stopped, all active transactions
// abort and the composite machinery restarts fresh (a new epoch). A
// transaction belongs to the epoch of its first step; once that epoch
// is over every further step of it is rejected, until its Commit or
// Abort retires it. (One that validated everything before the restart
// still commits: it holds its write set's latches, so every conflicting
// operation of the new epoch is ordered after its publish.)
type epochComposite struct {
	opts  composite.Options
	names *intern.Table // the store's, handed to every epoch's scheduler
	cur   *composite.Scheduler
	epoch uint64
	born  map[int]uint64 // epoch of each stepped, unfinished transaction
}

func newEpochComposite(k int, sub engine.Options, names *intern.Table) *epochComposite {
	opts := composite.Options{K: k, Sub: sub}
	return &epochComposite{
		opts: opts, names: names,
		cur:  composite.NewSchedulerInterned(opts, names),
		born: make(map[int]uint64),
	}
}

// StepReadID implements kernel. A composite reject names no blocker.
func (c *epochComposite) StepReadID(txn int, id int32) (core.Verdict, int) {
	return c.step(txn, id, (*composite.Scheduler).StepReadID), 0
}

// StepWriteID implements kernel.
func (c *epochComposite) StepWriteID(txn int, id int32) (core.Verdict, int) {
	return c.step(txn, id, (*composite.Scheduler).StepWriteID), 0
}

func (c *epochComposite) step(txn int, id int32, arm func(*composite.Scheduler, int, int32) (core.Verdict, int)) core.Verdict {
	if e, stepped := c.born[txn]; !stepped {
		c.born[txn] = c.epoch
	} else if e != c.epoch {
		return core.Reject
	}
	v, _ := arm(c.cur, txn, id)
	if v == core.Reject {
		// All subprotocols stopped: restart (Algorithm 2 step 4-i). The
		// transactions of the old epoch abort at their next step.
		c.epoch++
		c.cur = composite.NewSchedulerInterned(c.opts, c.names)
	}
	return v
}

// retire forgets txn and reports whether the current scheduler knows
// it (it stepped in this epoch).
func (c *epochComposite) retire(txn int) bool {
	e, stepped := c.born[txn]
	delete(c.born, txn)
	return stepped && e == c.epoch
}

// Commit implements kernel.
func (c *epochComposite) Commit(txn int) {
	if c.retire(txn) {
		c.cur.Commit(txn)
	}
}

// Abort implements kernel.
func (c *epochComposite) Abort(txn, blocker int) {
	if c.retire(txn) {
		c.cur.Abort(txn, blocker)
	}
}

// Watermarks implements kernel. An epoch restart replaces the
// subprotocols with fresh counters, so the instantaneous max can drop —
// the log writer's monotone clamp keeps the persisted watermarks valid
// (they stay at the all-time max, which is exactly the safe seed).
func (c *epochComposite) Watermarks() (lo, hi int64) { return c.cur.Watermarks() }

// RaiseWatermarks implements kernel.
func (c *epochComposite) RaiseWatermarks(lo, hi int64) { c.cur.RaiseWatermarks(lo, hi) }
