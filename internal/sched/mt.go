package sched

import (
	"fmt"
	"sync"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/oplog"
	"repro/internal/storage"
)

// MTOptions configures the MT(k) runtime adapter.
type MTOptions struct {
	// Core carries the protocol options (K, ThomasWriteRule,
	// StarvationAvoidance, hot-item encoding, ...).
	Core engine.Options
	// DeferWrites enables the Section VI-C-2 scheme: writes are buffered
	// and validated at commit, so WT(x) only ever names committed
	// transactions and a committed transaction can never be aborted.
	// When false, writes are validated (and WT updated) at write time —
	// Algorithm 1's immediate discipline — while data still publishes
	// atomically at commit.
	DeferWrites bool
}

// mtTxn is the runtime state of one live transaction.
type mtTxn struct {
	writes  map[string]int64
	order   []string // write order, for deterministic commit validation
	blocker int      // last rejecting transaction (starvation fix seed)
	epoch   uint64   // composite adapter epoch; 0 for plain MT

	// DMT degraded-mode bookkeeping (see sched/dmt.go): whether this
	// incarnation has validated any protocol step (a parked attempt may
	// only resume if nothing was validated against pre-crash state), and
	// whether it was already counted as a degraded-window attempt.
	stepped    bool
	winCounted bool
}

// MT adapts the core MT(k) protocol to the runtime Scheduler interface.
type MT struct {
	mu    sync.Mutex
	opts  MTOptions
	sched *engine.Scheduler
	store *storage.Store
	txns  map[int]*mtTxn
}

// NewMT returns an MT(k)-family runtime scheduler over the store.
func NewMT(store *storage.Store, opts MTOptions) *MT {
	return &MT{
		opts:  opts,
		sched: engine.NewScheduler(opts.Core),
		store: store,
		txns:  make(map[int]*mtTxn),
	}
}

// Name implements Scheduler.
func (m *MT) Name() string {
	name := fmt.Sprintf("MT(%d)", m.opts.Core.K)
	if m.opts.Core.MonotonicEncoding {
		name += "/mono"
	}
	if m.opts.DeferWrites {
		name += "/deferred"
	}
	return name
}

// Begin implements Scheduler.
func (m *MT) Begin(txn int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.txns[txn] = &mtTxn{writes: make(map[string]int64)}
}

// state returns the live incarnation's buffers, or nil if the
// transaction has no live incarnation (never began, or was aborted by a
// deadline-expired runtime attempt whose straggler operation arrives
// late). Returning nil instead of panicking keeps the run alive: the
// caller answers such stray operations with a plain abort.
func (m *MT) state(txn int) *mtTxn {
	return m.txns[txn]
}

// Read implements Scheduler: the read is validated immediately
// (Algorithm 1); the value comes from the transaction's own write buffer
// or the committed store.
//
// Immediate mode publishes WT(x) at write time but the DATA only at
// commit, so a read ordered after a still-uncommitted writer would see
// the old value while the protocol believes it saw the new one — a lost
// update. Such reads abort (no dirty-read window); a read ordered BEFORE
// the pending writer (the line-9 slot-in) legitimately reads the old
// version and proceeds. Deferred mode never hits this: WT(x) only ever
// names committed transactions.
func (m *MT) Read(txn int, item string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(txn)
	if st == nil {
		return 0, Abort(txn, 0, "no live incarnation")
	}
	if v, ok := st.writes[item]; ok {
		return v, nil
	}
	d := m.sched.Step(oplog.R(txn, item))
	if d.Verdict == core.Reject {
		st.blocker = d.Blocker
		_, live := m.txns[d.Blocker]
		return 0, abortBy(txn, d.Blocker, live, "read rejected")
	}
	if !m.opts.DeferWrites {
		if w := m.sched.WT(item); w != txn {
			if _, live := m.txns[w]; live && !m.sched.Vector(txn).Less(m.sched.Vector(w)) {
				st.blocker = w
				return 0, Abort(txn, w, "read ordered after uncommitted writer")
			}
		}
	}
	return m.store.Get(item), nil
}

// Write implements Scheduler.
//
// Immediate mode admits at most one uncommitted writer per item: WT(x)
// is published at write time but the data only at commit, so if two
// live transactions both held accepted writes on x, whichever commit
// order occurred would invert the decided write order for one of them
// (the earlier-ordered writer publishing second silently clobbers the
// later-ordered committed value — the lost update the schedule explorer
// found on mix-3x2). The second writer aborts before the protocol step,
// mirroring the read-side "ordered after uncommitted writer" guard.
// Deferred mode never hits this: writes are validated at commit, where
// publication and ordering are one atomic decision.
func (m *MT) Write(txn int, item string, v int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(txn)
	if st == nil {
		return Abort(txn, 0, "no live incarnation")
	}
	if !m.opts.DeferWrites {
		if w := m.sched.WT(item); w != 0 && w != txn {
			if _, live := m.txns[w]; live {
				st.blocker = w
				return Abort(txn, w, "write conflicts with uncommitted writer")
			}
		}
		d := m.sched.Step(oplog.W(txn, item))
		switch d.Verdict {
		case core.Reject:
			st.blocker = d.Blocker
			_, live := m.txns[d.Blocker]
			return abortBy(txn, d.Blocker, live, "write rejected")
		case core.AcceptIgnored:
			// Thomas write rule: the write is obsolete; drop it.
			delete(st.writes, item)
			return nil
		}
	}
	if _, ok := st.writes[item]; !ok {
		st.order = append(st.order, item)
	}
	st.writes[item] = v
	return nil
}

// Commit implements Scheduler: with DeferWrites the buffered writes are
// validated now (each via the ordinary write arm of Algorithm 1); the
// surviving write set publishes atomically.
func (m *MT) Commit(txn int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(txn)
	if st == nil {
		return Abort(txn, 0, "no live incarnation")
	}
	apply := make(map[string]int64, len(st.writes))
	for x, v := range st.writes {
		apply[x] = v
	}
	if m.opts.DeferWrites {
		for _, x := range st.order {
			if _, ok := st.writes[x]; !ok {
				continue
			}
			d := m.sched.Step(oplog.W(txn, x))
			switch d.Verdict {
			case core.Reject:
				st.blocker = d.Blocker
				m.sched.Abort(txn, d.Blocker)
				delete(m.txns, txn)
				_, live := m.txns[d.Blocker]
				return abortBy(txn, d.Blocker, live, "commit-time write validation failed")
			case core.AcceptIgnored:
				delete(apply, x)
			}
		}
	}
	m.store.ApplyTxn(txn, apply)
	m.sched.Commit(txn)
	delete(m.txns, txn)
	return nil
}

// Abort implements Scheduler.
func (m *MT) Abort(txn int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.txns[txn]
	blocker := 0
	if st != nil {
		blocker = st.blocker
	}
	m.sched.Abort(txn, blocker)
	delete(m.txns, txn)
}

// Core exposes the underlying protocol scheduler (tests, diagnostics).
func (m *MT) Core() *engine.Scheduler { return m.sched }

// TryPartialRestart implements the Section VI-C-1 partial rollback for a
// transaction whose last operation was rejected: the vector is flushed
// and reseeded past the blocker (so the retried suffix can be ordered)
// and the transaction's earlier accepted reads are re-validated under the
// new vector. On success the caller may resume execution after the kept
// prefix, preserving its computation; the caller is responsible for
// checking that the kept read VALUES are still current (per-item store
// versions) before resuming. Requires StarvationAvoidance; returns false
// when a full restart is needed.
func (m *MT) TryPartialRestart(txn int, readItems []string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.txns[txn]
	if st == nil || st.blocker == 0 || !m.opts.Core.StarvationAvoidance {
		return false
	}
	// Flush and reseed (keeps the transaction live: the write buffer and
	// state survive).
	m.sched.Abort(txn, st.blocker)
	st.blocker = 0
	for _, x := range readItems {
		if d := m.sched.Step(oplog.R(txn, x)); d.Verdict == core.Reject {
			st.blocker = d.Blocker
			return false
		}
	}
	return true
}

// Composite adapts MT(k⁺) to the runtime. When every subprotocol has
// stopped, Algorithm 2 step 4 applies: all active transactions abort and
// the composite machinery restarts fresh (a new epoch).
//
// The protocol state (composite.Scheduler, epoch, transaction map) stays
// under one mutex — an epoch restart swaps the whole scheduler, which no
// per-item scheme survives — but DATA access is striped: an operation
// holds its items' latches (acquired before mu, released after the store
// access) so storage reads and commit publishes on disjoint items
// overlap, while the latch still pins each decision to the store state
// it was made against.
//
// Composite's aborts name no blocker — a reject means every subprotocol
// stopped, not that one transaction stood in the way — so
// AbortError.BlockerFinished stays false and the runtime keeps its
// jittered wait after them.
type Composite struct {
	mu      sync.Mutex
	k       int
	sub     engine.Options
	sched   *composite.Scheduler
	store   *storage.Store
	latches *core.LatchTable // nil in the coarse reference variant
	txns    map[int]*mtTxn
	epoch   uint64
}

// NewComposite returns an MT(k⁺) runtime scheduler (deferred writes)
// with the striped data path: item latches let storage accesses on
// disjoint items overlap.
func NewComposite(store *storage.Store, k int, sub engine.Options) *Composite {
	c := NewCompositeCoarse(store, k, sub)
	c.latches = core.NewLatchTable(engine.DefaultStripes)
	return c
}

// NewCompositeCoarse returns the coarse MT(k⁺) runtime scheduler: every
// store access runs under the protocol mutex, like the seed adapter.
// It is the differential reference the striped variant benches against.
func NewCompositeCoarse(store *storage.Store, k int, sub engine.Options) *Composite {
	return &Composite{
		k:     k,
		sub:   sub,
		sched: composite.NewScheduler(composite.Options{K: k, Sub: sub}),
		store: store,
		txns:  make(map[int]*mtTxn),
	}
}

// Name implements Scheduler.
func (c *Composite) Name() string {
	if c.latches == nil {
		return fmt.Sprintf("MT(%d+)/coarse", c.k)
	}
	return fmt.Sprintf("MT(%d+)", c.k)
}

// Begin implements Scheduler.
func (c *Composite) Begin(txn int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.txns[txn] = &mtTxn{writes: make(map[string]int64), epoch: c.epoch}
}

// step runs one operation, handling the epoch-restart rule.
func (c *Composite) step(st *mtTxn, txn int, op oplog.Op) error {
	if st.epoch != c.epoch {
		return Abort(txn, 0, "composite epoch restart")
	}
	d := c.sched.Step(op)
	if d.Verdict == core.Reject {
		// All subprotocols stopped: abort all active transactions and
		// restart (Algorithm 2 step 4-i).
		c.epoch++
		c.sched = composite.NewScheduler(composite.Options{K: c.k, Sub: c.sub})
		return Abort(txn, 0, "all subprotocols stopped")
	}
	return nil
}

// Read implements Scheduler. Striped: the item's latch is held across
// the protocol step and the store read; the store access itself
// happens outside the protocol mutex, so reads of disjoint items
// overlap. Coarse: the store read stays under the protocol mutex.
func (c *Composite) Read(txn int, item string) (int64, error) {
	if c.latches != nil {
		unlock := c.latches.Lock(item)
		defer unlock()
	}
	c.mu.Lock()
	st := c.state(txn)
	if st == nil {
		c.mu.Unlock()
		return 0, Abort(txn, 0, "no live incarnation")
	}
	if v, ok := st.writes[item]; ok {
		c.mu.Unlock()
		return v, nil
	}
	if err := c.step(st, txn, oplog.R(txn, item)); err != nil {
		c.mu.Unlock()
		return 0, err
	}
	if c.latches == nil {
		defer c.mu.Unlock()
		return c.store.Get(item), nil
	}
	c.mu.Unlock()
	return c.store.Get(item), nil
}

// Write implements Scheduler (writes deferred to commit).
func (c *Composite) Write(txn int, item string, v int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state(txn)
	if st == nil {
		return Abort(txn, 0, "no live incarnation")
	}
	if _, ok := st.writes[item]; !ok {
		st.order = append(st.order, item)
	}
	st.writes[item] = v
	return nil
}

// Commit implements Scheduler. The write set's latches are held from
// commit-time validation through ApplyTxn, so a concurrent reader of a
// written item sees either the pre-commit state with the pre-commit
// ordering or the post-commit state with the post-commit ordering; the
// publish itself runs outside the protocol mutex, so commits on
// disjoint items overlap in the store.
func (c *Composite) Commit(txn int) error {
	c.mu.Lock()
	st := c.state(txn)
	if st == nil {
		c.mu.Unlock()
		return Abort(txn, 0, "no live incarnation")
	}
	order := append([]string(nil), st.order...)
	c.mu.Unlock()
	if c.latches != nil {
		unlock := c.latches.Lock(order...)
		defer unlock()
	}
	c.mu.Lock()
	// Re-check under the latches: a stray incarnation (abandoned timeout
	// goroutine) may have aborted or replaced this id meanwhile.
	if c.txns[txn] != st {
		c.mu.Unlock()
		return Abort(txn, 0, "transaction state lost before commit")
	}
	for _, x := range order {
		if err := c.step(st, txn, oplog.W(txn, x)); err != nil {
			c.sched.Abort(txn, 0)
			delete(c.txns, txn)
			c.mu.Unlock()
			return err
		}
	}
	writes := make(map[string]int64, len(st.writes))
	for x, v := range st.writes {
		writes[x] = v
	}
	c.sched.Commit(txn)
	delete(c.txns, txn)
	if c.latches == nil {
		// Coarse reference: publish under the protocol mutex.
		defer c.mu.Unlock()
		c.store.ApplyTxn(txn, writes)
		return nil
	}
	c.mu.Unlock()
	c.store.ApplyTxn(txn, writes)
	return nil
}

// Abort implements Scheduler.
func (c *Composite) Abort(txn int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.txns[txn]; ok {
		c.sched.Abort(txn, 0)
		delete(c.txns, txn)
	}
}

// Protocol exposes the current composite scheduler (tests and
// diagnostics; epoch restarts swap it, so quiesce before inspecting).
func (c *Composite) Protocol() *composite.Scheduler {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sched
}

// state mirrors MT.state: nil for a transaction with no live
// incarnation, answered by the caller with a plain abort.
func (c *Composite) state(txn int) *mtTxn {
	return c.txns[txn]
}
