package sched

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nested"
	"repro/internal/oplog"
	"repro/internal/storage"
)

// NestedOptions configures the MT(k1, ..., kl) runtime adapter.
type NestedOptions struct {
	// Ks are the per-level vector sizes (nested.Options.Ks).
	Ks []int
	// UnitOf maps a transaction to its containing unit at each level
	// >= 1 (nested.Options.UnitOf); nil puts every transaction in
	// group 0.
	UnitOf func(txn, lvl int) int
	// Coarse selects the reference data path: every store access runs
	// under the protocol mutex. The default (false) is the striped
	// path, where item latches let store accesses on disjoint items
	// overlap.
	Coarse bool
}

// Nested adapts the hierarchical MT(k1, ..., kl) protocol to the
// runtime Scheduler interface (deferred writes: the protocol table has
// no abort/reseed machinery, so WT(x) must only ever name committed
// transactions). Like Composite, the protocol state stays under one
// mutex — the nested tables are unsynchronized — while the striped
// variant latches items so storage reads and commit publishes on
// disjoint items overlap.
type Nested struct {
	mu      sync.Mutex
	opts    NestedOptions
	sched   *nested.Scheduler
	store   *storage.Store
	latches *core.LatchTable // nil when Coarse
	txns    map[int]*mtTxn
}

// NewNested returns an MT(k1, ..., kl) runtime scheduler over the store.
func NewNested(store *storage.Store, opts NestedOptions) *Nested {
	n := &Nested{
		opts:  opts,
		sched: nested.NewScheduler(nested.Options{Ks: opts.Ks, UnitOf: opts.UnitOf}),
		store: store,
		txns:  make(map[int]*mtTxn),
	}
	if !opts.Coarse {
		n.latches = core.NewLatchTable(engine.DefaultStripes)
	}
	return n
}

// Name implements Scheduler.
func (n *Nested) Name() string {
	name := "MT("
	for i, k := range n.opts.Ks {
		if i > 0 {
			name += ","
		}
		name += fmt.Sprint(k)
	}
	name += ")"
	if n.opts.Coarse {
		name += "/coarse"
	}
	return name
}

// Begin implements Scheduler.
func (n *Nested) Begin(txn int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.txns[txn] = &mtTxn{writes: make(map[string]int64)}
}

func (n *Nested) state(txn int) *mtTxn {
	st := n.txns[txn]
	if st == nil {
		panic(fmt.Sprintf("sched: operation on transaction %d without Begin", txn))
	}
	return st
}

// Read implements Scheduler. Striped: the item's latch is held across
// the protocol step and the store read, pinning the decision to the
// committed state it was made against; coarse keeps the read under the
// protocol mutex.
func (n *Nested) Read(txn int, item string) (int64, error) {
	if n.latches != nil {
		unlock := n.latches.Lock(item)
		defer unlock()
	}
	n.mu.Lock()
	st := n.state(txn)
	if v, ok := st.writes[item]; ok {
		n.mu.Unlock()
		return v, nil
	}
	d := n.sched.Step(oplog.R(txn, item))
	if d.Verdict == core.Reject {
		st.blocker = d.Blocker
		_, live := n.txns[d.Blocker]
		n.mu.Unlock()
		return 0, abortBy(txn, d.Blocker, live, "read rejected")
	}
	if n.latches == nil {
		defer n.mu.Unlock()
		return n.store.Get(item), nil
	}
	n.mu.Unlock()
	return n.store.Get(item), nil
}

// Write implements Scheduler (writes deferred to commit).
func (n *Nested) Write(txn int, item string, v int64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.state(txn)
	if _, ok := st.writes[item]; !ok {
		st.order = append(st.order, item)
	}
	st.writes[item] = v
	return nil
}

// Commit implements Scheduler: the buffered writes are validated now,
// then the write set publishes atomically. Striped holds the write
// set's latches from validation through ApplyTxn.
func (n *Nested) Commit(txn int) error {
	n.mu.Lock()
	st := n.state(txn)
	order := append([]string(nil), st.order...)
	n.mu.Unlock()
	if n.latches != nil {
		unlock := n.latches.Lock(order...)
		defer unlock()
	}
	n.mu.Lock()
	if n.txns[txn] != st {
		n.mu.Unlock()
		return Abort(txn, 0, "transaction state lost before commit")
	}
	for _, x := range order {
		d := n.sched.Step(oplog.W(txn, x))
		if d.Verdict == core.Reject {
			st.blocker = d.Blocker
			_, live := n.txns[d.Blocker]
			delete(n.txns, txn)
			n.mu.Unlock()
			return abortBy(txn, d.Blocker, live, "commit-time write validation failed")
		}
	}
	writes := make(map[string]int64, len(st.writes))
	for x, v := range st.writes {
		writes[x] = v
	}
	delete(n.txns, txn)
	if n.latches == nil {
		defer n.mu.Unlock()
		n.store.ApplyTxn(txn, writes)
		return nil
	}
	n.mu.Unlock()
	n.store.ApplyTxn(txn, writes)
	return nil
}

// Abort implements Scheduler. The hierarchical tables have no
// flush-and-reseed machinery; dropping the runtime state is enough,
// since deferred writes mean nothing was published.
func (n *Nested) Abort(txn int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.txns, txn)
}

// Protocol exposes the underlying hierarchical scheduler (tests,
// diagnostics).
func (n *Nested) Protocol() *nested.Scheduler {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sched
}
