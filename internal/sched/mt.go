package sched

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
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

// family is what a protocol family tells the lifecycle wrapped around
// its protocol. Both lifecycles (the adapter and the MT reference) read
// it; neither asks which family it is running.
type family struct {
	name string // Scheduler.Name
	// deferred selects the Section VI-C-2 scheme (MTOptions.DeferWrites).
	// Only MT(k) offers the immediate alternative.
	deferred bool
	// rejected, when set, is the protocol's own name for a rejection and
	// replaces the per-stage wording ("read rejected", ...).
	rejected string
}

// family derives the lifecycle parameters of an MT(k) scheduler;
// variant distinguishes the engine instantiation in the name.
func (o MTOptions) family(variant string) family {
	name := fmt.Sprintf("MT(%d)%s", o.Core.K, variant)
	if o.Core.MonotonicEncoding {
		name += "/mono"
	}
	if o.DeferWrites {
		name += "/deferred"
	}
	return family{name: name, deferred: o.DeferWrites}
}

// Name implements Scheduler.
func (f *family) Name() string { return f.name }

// reason words a protocol rejection at the given lifecycle stage.
func (f *family) reason(stage string) string {
	if f.rejected != "" {
		return f.rejected
	}
	return stage
}

// refusal turns a step the kernel did not accept into the caller's
// error. A Reject is a lost conflict, worded by rejected: who is the
// blocker, recorded in *blocker so the next Abort can reseed past it.
// An Unavailable is no decision at all — the site who could not be
// reached, nothing was ordered — so nothing is recorded and the error
// is not an abort.
func (f *family) refusal(blocker *int, txn int, v core.Verdict, who int, live func(int) bool, rejected string) error {
	if v == core.Unavailable {
		return Unavailable(txn, who, "site unreachable")
	}
	*blocker = who
	return abortBy(txn, who, live(who), f.reason(rejected))
}

// noIncarnation answers an operation on a transaction with no live
// incarnation — never begun, or aborted by a deadline-expired runtime
// attempt whose straggler arrives late — with a plain abort, not a panic.
const noIncarnation = "no live incarnation"

// mtTxn is the runtime state of one live transaction.
type mtTxn struct {
	writes  map[string]int64
	order   []string // write order, for deterministic commit validation
	blocker int      // last rejecting transaction (starvation fix seed)
}

// MT is the coarse reference lifecycle: one global mutex around the
// protocol step AND the data access it orders, string-keyed buffers, no
// pooling. It is not the production path (that is the adapter); it
// stays because equiv_test and the schedule explorer's parity oracle
// need a second, independent implementation of the lifecycle — locking,
// buffering, guards, publish order — to compare the adapter against,
// decision for decision. It takes any kernel, so every family has its
// reference without a hand-written coarse twin; an item is interned
// once per call, for the protocol step only.
type MT struct {
	family
	mu    sync.Mutex
	sched kernel
	probe pendingWriters // sched again, for immediate mode; nil when deferred
	store *storage.Store
	txns  map[int]*mtTxn
	live  func(int) bool // has txn runtime state? (the caller holds mu)
}

// NewMT returns the reference MT(k)-family runtime scheduler over the
// store.
func NewMT(store *storage.Store, opts MTOptions) *MT {
	return newReference(store, opts.family(""), engine.NewSchedulerInterned(opts.Core, store.Interner()))
}

// newReference wraps the reference lifecycle around k, which must index
// items by the store's interned ids.
func newReference(store *storage.Store, f family, k kernel) *MT {
	m := &MT{family: f, sched: k, store: store, txns: make(map[int]*mtTxn)}
	if !f.deferred {
		m.probe = k.(pendingWriters)
	}
	m.live = func(txn int) bool { _, ok := m.txns[txn]; return ok }
	return m
}

// referencer is implemented by every production scheduler of this
// package: it builds its family's reference with its own options.
type referencer interface {
	reference(*storage.Store) *MT
}

// Reference returns the reference lifecycle of the production scheduler
// of (an MTStriped, Composite, Nested or DMT), built with the same
// options over store: the differential twin equiv_test and the schedule
// explorer's parity oracle replay against. It is the one door to a
// family's reference besides NewMT.
func Reference(of Scheduler, store *storage.Store) *MT {
	return of.(referencer).reference(store)
}

// Begin implements Scheduler.
func (m *MT) Begin(txn int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.txns[txn] = &mtTxn{writes: make(map[string]int64)}
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
	st := m.txns[txn]
	if st == nil {
		return 0, Abort(txn, 0, noIncarnation)
	}
	if v, ok := st.writes[item]; ok {
		return v, nil
	}
	id := m.store.IDOf(item)
	if v, who := m.sched.StepReadID(txn, id); v != core.Accept {
		return 0, m.refusal(&st.blocker, txn, v, who, m.live, "read rejected")
	}
	if !m.deferred {
		if w, conflict := m.probe.ReadPendingWriterID(txn, id, m.live); conflict {
			st.blocker = w
			return 0, Abort(txn, w, "read ordered after uncommitted writer")
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
	st := m.txns[txn]
	if st == nil {
		return Abort(txn, 0, noIncarnation)
	}
	if !m.deferred {
		id := m.store.IDOf(item)
		if w, conflict := m.probe.WritePendingWriterID(txn, id, m.live); conflict {
			st.blocker = w
			return Abort(txn, w, "write conflicts with uncommitted writer")
		}
		switch v, who := m.sched.StepWriteID(txn, id); v {
		case core.Reject, core.Unavailable:
			return m.refusal(&st.blocker, txn, v, who, m.live, "write rejected")
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

// Commit implements Scheduler: in deferred mode the buffered writes are
// validated now (each via the ordinary write arm of the protocol); the
// surviving write set publishes atomically.
func (m *MT) Commit(txn int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.txns[txn]
	if st == nil {
		return Abort(txn, 0, noIncarnation)
	}
	if m.deferred {
		for _, x := range st.order {
			switch v, who := m.sched.StepWriteID(txn, m.store.IDOf(x)); v {
			case core.Reject, core.Unavailable:
				err := m.refusal(&st.blocker, txn, v, who, m.live, "commit-time write validation failed")
				m.sched.Abort(txn, st.blocker)
				delete(m.txns, txn)
				return err
			case core.AcceptIgnored:
				delete(st.writes, x)
			}
		}
	}
	m.store.ApplyTxn(txn, st.writes)
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

// Core exposes the underlying MT(k) protocol scheduler (tests,
// diagnostics); nil when the reference wraps another family's kernel.
func (m *MT) Core() *engine.Scheduler {
	c, _ := m.sched.(*engine.Scheduler)
	return c
}

// WALCounters implements DurableCounters. It takes no lock: the
// journal hook runs inside the lifecycle's own critical section.
func (m *MT) WALCounters() (lo, hi int64) { return m.sched.Watermarks() }

// SeedWALCounters implements DurableCounters.
func (m *MT) SeedWALCounters(lo, hi int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sched.RaiseWatermarks(lo, hi)
}
