package sched

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/explore/hook"
	"repro/internal/storage"
)

// MTStriped adapts the fine-grained-locking engine.Striped scheduler to
// the runtime Scheduler interface. It is decision-for-decision
// equivalent to MT (the coarse global-mutex adapter, retained as the
// differential reference) but operations on disjoint items from
// different transactions run concurrently.
//
// The adapter shares the store's item-intern table with the engine, so
// an operation interns its item once and then runs the id-indexed fast
// path end to end — stripe lookup, protocol step, store access — with
// no string hashing and no allocation in the steady state (the alloc
// gate holds BenchmarkStripedScheduler's step path at 0 allocs/op).
//
// Lock order, outermost first:
//
//  1. the transaction's own state lock (write buffer, blocker) — one
//     lock per live transaction, so two incarnations of the same id (a
//     live retry plus a stray abandoned-timeout goroutine) serialize
//     while unrelated transactions never meet;
//  2. the core latch table's item stripes (ascending stripe order),
//     held across the protocol step AND the data access it orders —
//     the atomicity the coarse adapter gets from its global mutex: a
//     read's store.Get happens under the same latch as its accept, and
//     a commit holds its write set's latches from (deferred-mode)
//     validation through ApplyTxn, so no operation can slot between a
//     decision and the data state it was decided against;
//  3. the striped core's transaction-entry and counter locks;
//  4. the store's shard locks and commit mutex (the WAL group-commit
//     path stays the only global ordering point).
//
// The adapter's transaction map lock (tmu) is a leaf: it is never held
// while acquiring any of the above.
type MTStriped struct {
	opts   MTOptions
	sched  *engine.Striped
	store  *storage.Store
	liveFn func(int) bool // m.live, bound once (no per-call closure)

	tmu  sync.RWMutex
	txns map[int]*stripedTxnState
	pool sync.Pool // *stripedTxnState, recycled across transactions

	// unsafePublish reintroduces the PR 5 deferred-mode publish
	// inversion for the schedule explorer's seeded-bug tests: commit
	// releases the write set's latches between validation and ApplyTxn,
	// reopening the window where two validated writers publish in commit
	// order instead of timestamp order. Never set outside tests.
	unsafePublish bool
}

// stripedTxnState is the runtime state of one live transaction,
// guarded by its own lock. States are pooled: drop returns them, Begin
// recycles them, and every lock of a possibly-stale pointer re-checks
// identity against the transaction map afterwards (see lockState).
type stripedTxnState struct {
	mu      sync.Mutex
	writes  map[int32]int64
	order   []int32 // write order, for deterministic commit validation
	blocker int     // last rejecting transaction (starvation fix seed)
	// commit-path scratch, reused across incarnations
	stripes []int
	ids     []int32
	vals    []int64
}

// NewMTStriped returns a striped MT(k)-family runtime scheduler over
// the store. The engine shares the store's intern table.
func NewMTStriped(store *storage.Store, opts MTOptions) *MTStriped {
	m := &MTStriped{
		opts:  opts,
		sched: engine.NewStripedInterned(opts.Core, store.Interner()),
		store: store,
		txns:  make(map[int]*stripedTxnState),
	}
	m.liveFn = m.live
	m.pool.New = func() any {
		return &stripedTxnState{writes: make(map[int32]int64)}
	}
	return m
}

// Name implements Scheduler.
func (m *MTStriped) Name() string {
	name := fmt.Sprintf("MT(%d)/striped", m.opts.Core.K)
	if m.opts.Core.MonotonicEncoding {
		name += "/mono"
	}
	if m.opts.DeferWrites {
		name += "/deferred"
	}
	return name
}

// Begin implements Scheduler.
func (m *MTStriped) Begin(txn int) {
	st := m.pool.Get().(*stripedTxnState)
	// Re-initialize under the state lock: the previous incarnation's
	// dropper may still hold it (drop runs before a deferred unlock),
	// and a straggler holding a stale pointer may lock it to run its
	// identity re-check at any moment.
	st.mu.Lock()
	clear(st.writes)
	st.order = st.order[:0]
	st.blocker = 0
	st.mu.Unlock()
	m.tmu.Lock()
	m.txns[txn] = st
	m.tmu.Unlock()
}

// lockState returns txn's live state with its lock held, or nil if the
// transaction has no live incarnation (never began, or was aborted by
// a deadline-expired runtime attempt whose straggler operation arrives
// late — such strays get a plain abort). Because states are pooled,
// the identity is re-checked after locking: if the state was dropped
// and recycled for another transaction between lookup and lock, the
// map no longer points at it for txn and the lookup retries.
func (m *MTStriped) lockState(txn int) *stripedTxnState {
	for {
		m.tmu.RLock()
		st := m.txns[txn]
		m.tmu.RUnlock()
		if st == nil {
			return nil
		}
		st.mu.Lock()
		m.tmu.RLock()
		cur := m.txns[txn]
		m.tmu.RUnlock()
		if cur == st {
			return st
		}
		st.mu.Unlock()
	}
}

// live reports whether txn has runtime state (used as the liveness
// callback for the immediate-mode pending-writer check; takes only the
// leaf map lock).
func (m *MTStriped) live(txn int) bool {
	m.tmu.RLock()
	_, ok := m.txns[txn]
	m.tmu.RUnlock()
	return ok
}

// Read implements Scheduler: the read is validated immediately
// (Algorithm 1) under the item's latch, and the value is fetched under
// the same latch, so the value read is exactly the committed state the
// decision was made against. The immediate-mode "read ordered after
// uncommitted writer" abort mirrors MT.Read.
func (m *MTStriped) Read(txn int, item string) (int64, error) {
	st := m.lockState(txn)
	if st == nil {
		return 0, Abort(txn, 0, "no live incarnation")
	}
	defer st.mu.Unlock()
	id := m.sched.ItemID(item)
	if v, ok := st.writes[id]; ok {
		return v, nil
	}
	lt := m.sched.Latches()
	stripe := lt.StripeOfID(id)
	lt.LockStripe(stripe)
	v, blocker := m.sched.StepReadID(txn, id)
	if v == core.Reject {
		lt.UnlockStripe(stripe)
		st.blocker = blocker
		return 0, abortBy(txn, blocker, m.live(blocker), "read rejected")
	}
	if !m.opts.DeferWrites {
		if w, conflict := m.sched.ReadPendingWriterID(txn, id, m.liveFn); conflict {
			lt.UnlockStripe(stripe)
			st.blocker = w
			return 0, Abort(txn, w, "read ordered after uncommitted writer")
		}
	}
	val := m.store.GetID(id)
	lt.UnlockStripe(stripe)
	return val, nil
}

// Write implements Scheduler.
func (m *MTStriped) Write(txn int, item string, v int64) error {
	st := m.lockState(txn)
	if st == nil {
		return Abort(txn, 0, "no live incarnation")
	}
	defer st.mu.Unlock()
	id := m.sched.ItemID(item)
	if !m.opts.DeferWrites {
		lt := m.sched.Latches()
		stripe := lt.StripeOfID(id)
		lt.LockStripe(stripe)
		// Immediate mode admits at most one uncommitted writer per item
		// (see MT.Write): a second live accepted write would publish in
		// commit order, inverting the decided write order for one of the
		// two. Checked under the item latch, before the protocol step, so
		// WT(x) still names the prior writer.
		if w, conflict := m.sched.WritePendingWriterID(txn, id, m.liveFn); conflict {
			lt.UnlockStripe(stripe)
			st.blocker = w
			return Abort(txn, w, "write conflicts with uncommitted writer")
		}
		verdict, blocker := m.sched.StepWriteID(txn, id)
		lt.UnlockStripe(stripe)
		switch verdict {
		case core.Reject:
			st.blocker = blocker
			return abortBy(txn, blocker, m.live(blocker), "write rejected")
		case core.AcceptIgnored:
			// Thomas write rule: the write is obsolete; drop it.
			delete(st.writes, id)
			return nil
		}
	}
	if _, ok := st.writes[id]; !ok {
		st.order = append(st.order, id)
	}
	st.writes[id] = v
	return nil
}

// Commit implements Scheduler: with DeferWrites the buffered writes
// are validated now. The whole write set's latches are held from
// validation through ApplyTxn and the protocol commit, so concurrent
// readers of those items see either the pre-commit state with the
// pre-commit ordering or the post-commit state with the post-commit
// ordering — never a mix. The commit record itself is sequenced by the
// store's commit mutex inside ApplyTxn (the group-commit boundary),
// not at latch-acquire time.
func (m *MTStriped) Commit(txn int) error {
	st := m.lockState(txn)
	if st == nil {
		return Abort(txn, 0, "no live incarnation")
	}
	defer st.mu.Unlock()
	lt := m.sched.Latches()
	st.stripes = st.stripes[:0]
	for _, id := range st.order {
		st.stripes = append(st.stripes, lt.StripeOfID(id))
	}
	sort.Ints(st.stripes)
	st.stripes = dedupInts(st.stripes)
	lt.LockStripesSorted(st.stripes)
	if m.opts.DeferWrites {
		for _, id := range st.order {
			if _, ok := st.writes[id]; !ok {
				continue
			}
			verdict, blocker := m.sched.StepWriteID(txn, id)
			switch verdict {
			case core.Reject:
				st.blocker = blocker
				m.sched.Abort(txn, blocker)
				lt.UnlockStripesSorted(st.stripes)
				m.drop(txn)
				return abortBy(txn, blocker, m.live(blocker), "commit-time write validation failed")
			case core.AcceptIgnored:
				delete(st.writes, id)
			}
		}
	}
	st.ids, st.vals = st.ids[:0], st.vals[:0]
	for _, id := range st.order {
		if v, ok := st.writes[id]; ok {
			st.ids = append(st.ids, id)
			st.vals = append(st.vals, v)
		}
	}
	if m.unsafePublish {
		// Seeded bug (explore harness): drop the latches before the
		// publish, as the pre-PR-5-fix code did. The yield marks the
		// reopened window so the explorer can preempt inside it.
		lt.UnlockStripesSorted(st.stripes)
		hook.Yield("sched.publish", "", int64(txn), 0)
		m.store.ApplyTxnIDs(txn, st.ids, st.vals)
		m.sched.Commit(txn)
		m.drop(txn)
		return nil
	}
	m.store.ApplyTxnIDs(txn, st.ids, st.vals)
	m.sched.Commit(txn)
	lt.UnlockStripesSorted(st.stripes)
	m.drop(txn)
	return nil
}

// dedupInts removes adjacent duplicates from a sorted slice, in place.
func dedupInts(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// SetUnsafePublish toggles the reintroduced publish-inversion bug
// (test-only fault injection for the schedule explorer; see the field
// comment).
func (m *MTStriped) SetUnsafePublish(v bool) { m.unsafePublish = v }

// drop removes txn's runtime state and recycles it. The state may
// still be locked by the caller (or by a straggler); recyclers
// re-initialize under the state lock, so the pool handoff is safe.
func (m *MTStriped) drop(txn int) {
	m.tmu.Lock()
	st := m.txns[txn]
	delete(m.txns, txn)
	m.tmu.Unlock()
	if st != nil {
		m.pool.Put(st)
	}
}

// Abort implements Scheduler.
func (m *MTStriped) Abort(txn int) {
	blocker := 0
	if st := m.lockState(txn); st != nil {
		blocker = st.blocker
		st.mu.Unlock()
	}
	m.sched.Abort(txn, blocker)
	m.drop(txn)
}

// Striped exposes the underlying protocol scheduler (tests,
// diagnostics).
func (m *MTStriped) Striped() *engine.Striped { return m.sched }

// K returns the protocol's vector size (crash-harness restart
// discovery; MT exposes the same via Core().K()).
func (m *MTStriped) K() int { return m.opts.Core.K }

// WALCounters implements DurableCounters. The striped engine's
// counter lock is safe to take here: the journal hook runs under the
// store's commit mutex while the committing goroutine holds item
// latches and transaction-entry locks, all of which order BEFORE the
// counter lock.
func (m *MTStriped) WALCounters() (lo, hi int64) { return m.sched.Watermarks() }

// SeedWALCounters implements DurableCounters (atomic raise-only clamp).
func (m *MTStriped) SeedWALCounters(lo, hi int64) { m.sched.SeedCounters(lo, hi) }

// TryPartialRestart implements the Section VI-C-1 partial rollback,
// mirroring MT.TryPartialRestart: flush-and-reseed past the blocker,
// then re-validate the kept reads under the new vector.
func (m *MTStriped) TryPartialRestart(txn int, readItems []string) bool {
	st := m.lockState(txn)
	if st == nil {
		return false
	}
	defer st.mu.Unlock()
	if st.blocker == 0 || !m.opts.Core.StarvationAvoidance {
		return false
	}
	// Flush and reseed (keeps the transaction live: the write buffer and
	// state survive).
	m.sched.Abort(txn, st.blocker)
	st.blocker = 0
	lt := m.sched.Latches()
	for _, x := range readItems {
		id := m.sched.ItemID(x)
		stripe := lt.StripeOfID(id)
		lt.LockStripe(stripe)
		verdict, blocker := m.sched.StepReadID(txn, id)
		lt.UnlockStripe(stripe)
		if verdict == core.Reject {
			st.blocker = blocker
			return false
		}
	}
	return true
}
