package sched

import (
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/explore/hook"
	"repro/internal/storage"
)

// kernel is the one protocol seam of this package, in id form: the part
// of an MT-family scheduler that differs between families — how
// Set(j, i) encodes a dependency — behind the one surface a transaction
// lifecycle needs. Names stop at the Scheduler methods: a lifecycle
// interns an item once and everything below speaks its id. Every
// protocol is a kernel as it stands — engine.Striped (safe for
// concurrent use, so the adapter takes it directly), and the
// caller-serialized engine.Scheduler, nested.Scheduler and
// epochComposite, which the adapter takes behind serial and the MT
// reference under its own mutex. The caller holds the item's latch (or
// the reference's global mutex) around every step.
type kernel interface {
	// The step methods run one arm of the scheduler procedure for an
	// interned item; on Reject the int names the blocker (0 for nobody),
	// on Unavailable the site that could not be reached.
	StepReadID(txn int, id int32) (core.Verdict, int)
	StepWriteID(txn int, id int32) (core.Verdict, int)
	// Commit and Abort end the transaction's protocol state; blocker is
	// the one a rejected step returned (0 for any other cause).
	Commit(txn int)
	Abort(txn, blocker int)
	// The durable-counter export every engine instantiation carries.
	Watermarks() (lo, hi int64)
	RaiseWatermarks(lo, hi int64)
}

// pendingWriters is what a kernel adds to be offered in immediate mode:
// the probes behind the two uncommitted-writer guards, asked with the
// item's latch held.
type pendingWriters interface {
	ReadPendingWriterID(txn int, id int32, live func(int) bool) (blocker int, conflict bool)
	WritePendingWriterID(txn int, id int32, live func(int) bool) (blocker int, conflict bool)
}

// adapter is the production transaction lifecycle, written once for
// every MT family: buffer writes, validate through the kernel, publish
// atomically at commit, never expose dirty data (Section VI-C-2). It is
// decision-for-decision equivalent to MT (the coarse global-mutex
// lifecycle, retained as the differential reference) over the same
// protocol, but operations on disjoint items from different
// transactions run concurrently.
//
// Its latch table stripes by the store's interned item ids, so an
// operation interns its item once and then runs the id-indexed path end
// to end — stripe lookup, protocol step, store access — with no string
// hashing and, on the striped engine, no allocation in the steady state
// (the alloc gate holds BenchmarkStripedScheduler's step path at 0
// allocs/op).
//
// Lock order, outermost first:
//
//  1. the transaction's own state lock (write buffer, blocker) — one
//     lock per live transaction, so two incarnations of the same id (a
//     live retry plus a stray abandoned-timeout goroutine) serialize
//     while unrelated transactions never meet;
//  2. the latch table's item stripes (ascending stripe order), held
//     across the protocol step AND the data access it orders — the
//     atomicity the reference gets from its global mutex: a read's
//     store.Get happens under the same latch as its accept, and a
//     commit holds its write set's latches from (deferred-mode)
//     validation through ApplyTxnIDs, so no operation can slot between
//     a decision and the data state it was decided against;
//  3. the kernel's own locks (the striped engine's transaction-entry
//     and counter locks; the serial wrapper's mutex);
//  4. the store's shard locks and commit mutex (the WAL group-commit
//     path stays the only global ordering point).
//
// The adapter's transaction map lock (tmu) is a leaf: it is never held
// while acquiring any of the above.
type adapter struct {
	family
	k      kernel
	probe  pendingWriters // k again, for immediate mode; nil when deferred
	lt     *core.LatchTable
	store  *storage.Store
	liveFn func(int) bool // a.live, bound once (no per-call closure)

	tmu  sync.RWMutex
	txns map[int]*txnState
	pool sync.Pool // *txnState, recycled across transactions

	// unsafePublish reintroduces the PR 5 deferred-mode publish
	// inversion for the schedule explorer's seeded-bug tests: commit
	// releases the write set's latches between validation and ApplyTxn,
	// reopening the window where two validated writers publish in commit
	// order instead of timestamp order. Never set outside tests.
	unsafePublish bool
}

// txnState is the runtime state of one live transaction, guarded by
// its own lock. States are pooled: drop returns them, Begin recycles
// them, and every lock of a possibly-stale pointer re-checks identity
// against the transaction map afterwards (see lockState).
type txnState struct {
	mu      sync.Mutex
	writes  map[int32]int64
	order   []int32 // write order, for deterministic commit validation
	blocker int     // last rejecting transaction (starvation fix seed)
	// commit-path scratch, reused across incarnations
	stripes []int
	ids     []int32
	vals    []int64
}

// newAdapter wraps the lifecycle around k; lt must stripe by the
// store's interned item ids.
func newAdapter(store *storage.Store, f family, k kernel, lt *core.LatchTable) *adapter {
	a := &adapter{family: f, k: k, lt: lt, store: store, txns: make(map[int]*txnState)}
	if !f.deferred {
		a.probe = k.(pendingWriters)
	}
	a.liveFn = a.live
	a.pool.New = func() any {
		return &txnState{writes: make(map[int32]int64)}
	}
	return a
}

// Begin implements Scheduler.
func (a *adapter) Begin(txn int) {
	st := a.pool.Get().(*txnState)
	// Re-initialize under the state lock: the previous incarnation's
	// dropper may still hold it (drop runs before a deferred unlock),
	// and a straggler holding a stale pointer may lock it to run its
	// identity re-check at any moment.
	st.mu.Lock()
	clear(st.writes)
	st.order = st.order[:0]
	st.blocker = 0
	st.mu.Unlock()
	a.tmu.Lock()
	a.txns[txn] = st
	a.tmu.Unlock()
}

// lockState returns txn's live state with its lock held, or nil if the
// transaction has no live incarnation (see noIncarnation). Because
// states are pooled, the identity is re-checked after locking: if the
// state was dropped and recycled for another transaction between lookup
// and lock, the map no longer points at it for txn and the lookup
// retries.
func (a *adapter) lockState(txn int) *txnState {
	for {
		a.tmu.RLock()
		st := a.txns[txn]
		a.tmu.RUnlock()
		if st == nil {
			return nil
		}
		st.mu.Lock()
		a.tmu.RLock()
		cur := a.txns[txn]
		a.tmu.RUnlock()
		if cur == st {
			return st
		}
		st.mu.Unlock()
	}
}

// live reports whether txn has runtime state (the liveness callback of
// the pending-writer probes and the blocker state abortBy reports;
// takes only the leaf map lock).
func (a *adapter) live(txn int) bool {
	a.tmu.RLock()
	_, ok := a.txns[txn]
	a.tmu.RUnlock()
	return ok
}

// Read implements Scheduler: the read is validated immediately
// (Algorithm 1) under the item's latch, and the value is fetched under
// the same latch, so the value read is exactly the committed state the
// decision was made against. The immediate-mode "read ordered after
// uncommitted writer" abort mirrors MT.Read.
func (a *adapter) Read(txn int, item string) (int64, error) {
	st := a.lockState(txn)
	if st == nil {
		return 0, Abort(txn, 0, noIncarnation)
	}
	defer st.mu.Unlock()
	id := a.store.IDOf(item)
	if v, ok := st.writes[id]; ok {
		return v, nil
	}
	stripe := a.lt.StripeOfID(id)
	a.lt.LockStripe(stripe)
	if v, who := a.k.StepReadID(txn, id); v != core.Accept {
		a.lt.UnlockStripe(stripe)
		return 0, a.refusal(&st.blocker, txn, v, who, a.liveFn, "read rejected")
	}
	if !a.deferred {
		if w, conflict := a.probe.ReadPendingWriterID(txn, id, a.liveFn); conflict {
			a.lt.UnlockStripe(stripe)
			st.blocker = w
			return 0, Abort(txn, w, "read ordered after uncommitted writer")
		}
	}
	val := a.store.GetID(id)
	a.lt.UnlockStripe(stripe)
	return val, nil
}

// Write implements Scheduler.
func (a *adapter) Write(txn int, item string, v int64) error {
	st := a.lockState(txn)
	if st == nil {
		return Abort(txn, 0, noIncarnation)
	}
	defer st.mu.Unlock()
	id := a.store.IDOf(item)
	if !a.deferred {
		stripe := a.lt.StripeOfID(id)
		a.lt.LockStripe(stripe)
		// At most one uncommitted writer per item (see MT.Write). Checked
		// under the item latch, before the protocol step, so WT(x) still
		// names the prior writer.
		if w, conflict := a.probe.WritePendingWriterID(txn, id, a.liveFn); conflict {
			a.lt.UnlockStripe(stripe)
			st.blocker = w
			return Abort(txn, w, "write conflicts with uncommitted writer")
		}
		verdict, who := a.k.StepWriteID(txn, id)
		a.lt.UnlockStripe(stripe)
		switch verdict {
		case core.Reject, core.Unavailable:
			return a.refusal(&st.blocker, txn, verdict, who, a.liveFn, "write rejected")
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

// Commit implements Scheduler: in deferred mode the buffered writes
// are validated now. The whole write set's latches are held from
// validation through ApplyTxnIDs and the protocol commit, so concurrent
// readers of those items see either the pre-commit state with the
// pre-commit ordering or the post-commit state with the post-commit
// ordering — never a mix. The commit record itself is sequenced by the
// store's commit mutex inside ApplyTxnIDs (the group-commit boundary),
// not at latch-acquire time.
func (a *adapter) Commit(txn int) error {
	st := a.lockState(txn)
	if st == nil {
		return Abort(txn, 0, noIncarnation)
	}
	defer st.mu.Unlock()
	st.stripes = st.stripes[:0]
	for _, id := range st.order {
		st.stripes = append(st.stripes, a.lt.StripeOfID(id))
	}
	slices.Sort(st.stripes)
	st.stripes = slices.Compact(st.stripes)
	a.lt.LockStripesSorted(st.stripes)
	st.ids, st.vals = st.ids[:0], st.vals[:0]
	for _, id := range st.order {
		v, ok := st.writes[id]
		if !ok {
			continue // dropped at write time (Thomas write rule)
		}
		if a.deferred {
			switch verdict, who := a.k.StepWriteID(txn, id); verdict {
			case core.Reject, core.Unavailable:
				err := a.refusal(&st.blocker, txn, verdict, who, a.liveFn, "commit-time write validation failed")
				a.k.Abort(txn, st.blocker)
				a.lt.UnlockStripesSorted(st.stripes)
				a.drop(txn)
				return err
			case core.AcceptIgnored:
				continue
			}
		}
		st.ids = append(st.ids, id)
		st.vals = append(st.vals, v)
	}
	if a.unsafePublish {
		// Seeded bug (explore harness): drop the latches before the
		// publish, as the pre-PR-5-fix code did. The yield marks the
		// reopened window so the explorer can preempt inside it.
		a.lt.UnlockStripesSorted(st.stripes)
		hook.Yield("sched.publish", "", int64(txn), 0)
	}
	a.store.ApplyTxnIDs(txn, st.ids, st.vals)
	a.k.Commit(txn)
	if !a.unsafePublish {
		a.lt.UnlockStripesSorted(st.stripes)
	}
	a.drop(txn)
	return nil
}

// drop removes txn's runtime state and recycles it. The state may
// still be locked by the caller (or by a straggler); recyclers
// re-initialize under the state lock, so the pool handoff is safe.
func (a *adapter) drop(txn int) {
	a.tmu.Lock()
	st := a.txns[txn]
	delete(a.txns, txn)
	a.tmu.Unlock()
	if st != nil {
		a.pool.Put(st)
	}
}

// Abort implements Scheduler.
func (a *adapter) Abort(txn int) {
	blocker := 0
	if st := a.lockState(txn); st != nil {
		blocker = st.blocker
		st.mu.Unlock()
	}
	a.k.Abort(txn, blocker)
	a.drop(txn)
}

// WALCounters implements DurableCounters. The kernel's own lock is
// safe to take here: the journal hook runs under the store's commit
// mutex while the committing goroutine holds its state lock and item
// latches, all of which order BEFORE the kernel's locks.
func (a *adapter) WALCounters() (lo, hi int64) { return a.k.Watermarks() }

// SeedWALCounters implements DurableCounters (atomic raise-only clamp).
func (a *adapter) SeedWALCounters(lo, hi int64) { a.k.RaiseWatermarks(lo, hi) }

// TryPartialRestart implements the Section VI-C-1 partial rollback,
// mirroring MT.TryPartialRestart: flush-and-reseed past the blocker,
// then re-validate the kept reads under the new vector.
func (a *adapter) TryPartialRestart(txn int, readItems []string) bool {
	st := a.lockState(txn)
	if st == nil {
		return false
	}
	defer st.mu.Unlock()
	if st.blocker == 0 || !a.reseeds {
		return false
	}
	// Flush and reseed (keeps the transaction live: the write buffer and
	// state survive).
	a.k.Abort(txn, st.blocker)
	st.blocker = 0
	for _, x := range readItems {
		id := a.store.IDOf(x)
		stripe := a.lt.StripeOfID(id)
		a.lt.LockStripe(stripe)
		verdict, blocker := a.k.StepReadID(txn, id)
		a.lt.UnlockStripe(stripe)
		if verdict == core.Reject {
			st.blocker = blocker
			return false
		}
	}
	return true
}

// MTStriped is MT(k) on the production path: the adapter over the
// fine-grained-locking engine.Striped and the engine's own latch table.
type MTStriped struct {
	*adapter
	sched *engine.Striped
	opts  MTOptions
}

// NewMTStriped returns a striped MT(k)-family runtime scheduler over
// the store. The engine shares the store's intern table.
func NewMTStriped(store *storage.Store, opts MTOptions) *MTStriped {
	eng := engine.NewStripedInterned(opts.Core, store.Interner())
	return &MTStriped{newAdapter(store, opts.family("/striped"), eng, eng.Latches()), eng, opts}
}

// reference implements referencer.
func (m *MTStriped) reference(store *storage.Store) *MT { return NewMT(store, m.opts) }

// Striped exposes the underlying protocol scheduler (tests,
// diagnostics).
func (m *MTStriped) Striped() *engine.Striped { return m.sched }

// K returns the protocol's vector size (crash-harness restart
// discovery; MT exposes the same via Core().K()).
func (m *MTStriped) K() int { return m.sched.K() }

// SetUnsafe is the one door to the two seeded bugs the schedule
// explorer (internal/explore) must be able to find again; nothing else
// may call it, and no options struct carries either switch. publish
// reintroduces the PR 5 deferred-mode publish inversion (see
// adapter.unsafePublish), eagerReclaim the pooled-entry lifecycle bug
// (engine.Striped.SetUnsafeEagerReclaim). Call before traffic flows.
func (m *MTStriped) SetUnsafe(publish, eagerReclaim bool) {
	m.unsafePublish = publish
	m.sched.SetUnsafeEagerReclaim(eagerReclaim)
}
