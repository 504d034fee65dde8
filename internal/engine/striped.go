package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/explore/hook"
	"repro/internal/intern"
	"repro/internal/oplog"
)

// Striped is the fine-grained-locking implementation of the MT(k)
// scheduler of Algorithm 1: decision-for-decision equivalent to
// Scheduler (the differential suite in internal/sched asserts this op
// by op), but safe for concurrent use, with operations on disjoint
// items from different transactions proceeding in parallel.
//
// The locking scheme follows the paper's own decentralized protocol
// (Section V), which serializes only per-object vector accesses via
// ordered locking, and the Section VI remark that vector operations on
// different items proceed concurrently:
//
//  1. an id-striped per-item LatchTable serializes the two accesses
//     that conflict on an item — reading/updating RT(x), WT(x) and the
//     access counts — with multi-item acquisitions (a deferred commit's
//     validate-and-publish) taking stripes in ascending order;
//  2. a per-transaction lock guards each timestamp vector, its
//     pin/done lifecycle bits and its successor flag; every step locks
//     the (at most three) transactions it touches — RT(x), WT(x) and
//     the operating transaction — in ascending id order;
//  3. a counter lock guards the column state (the lcount/ucount pair
//     and the per-column clock), taken last, for the duration of a
//     kernel encode or a starvation reseed.
//
// The hierarchy is strict (latches, then transaction locks, then the
// counter lock), so no acquisition order can deadlock. Each Set(j, i)
// runs entirely under the locks of both vectors it inspects and
// mutates, so dependency encoding stays atomic and Lemmas 1-2 (defined
// elements are never overwritten; '<' is a strict partial order) carry
// over unchanged: any concurrent execution is equivalent to some serial
// sequence of Set transitions, which is exactly the coarse scheduler's
// regime.
//
// The decision itself is the coarse Scheduler's, written once (algo in
// decide.go): this engine supplies the locked entries' vectors and
// successor flags, the stripe slices RT/WT are repinned in, and the
// counter lock.
//
// Memory discipline (DESIGN.md §14): items are interned to dense int32
// ids, so RT/WT/access state lives in per-stripe slices indexed by
// id/nStripes instead of string maps; transaction entries live in a
// core.Spine, a sliding chunked table indexed by txn id and read
// without a lock, and are recycled through a sync.Pool. A steady-state step — intern hit,
// latch, three entry locks, decision, repin — allocates nothing; the
// alloc gate in CI (make alloc-gate) holds it at 0 allocs/op.
type Striped struct {
	opts  Options
	k     int
	names *intern.Table
	hot   []bool // Options.HotItems by id

	latches *core.LatchTable
	stripes []itemStripe
	smask   int  // stripe index mask (stripe count - 1)
	nshift  uint // log2(stripe count): id >> nshift is the in-stripe index

	// txns is the transaction table: a sliding spine of pooled
	// entries, read without a lock. Publishing into an installed chunk
	// is a slot CAS; the spine's own mutex is a leaf, taken only to
	// install a chunk or regrow its ring.
	txns core.Spine[txnEntry]
	pool sync.Pool // *txnEntry, vectors pre-sized to k
	// staleRetries counts lock-set retries that hit a reclaimed or
	// recycled entry (the generation check); the pooled-reuse stress
	// test asserts every stale access is caught here.
	staleRetries atomic.Int64
	// unsafeEagerReclaim is the seeded pooled-entry lifecycle bug (see
	// SetUnsafeEagerReclaim). Never set outside internal/explore.
	unsafeEagerReclaim bool

	cols columns // under its own counter lock
	alg  algo    // Algorithm 1 over cols

	// OnDecision, when non-nil, observes every Step decision while the
	// operation's item latches are still held, so for any single item
	// the observed order is the true decision order. Set it before
	// traffic flows. Stress tests use it to build serialization graphs.
	OnDecision func(core.Decision)
}

// itemStripe is the per-stripe slice of the scheduler's item-indexed
// state, guarded by the latch with the same index. An item with id
// interned as n lives at index n >> nshift of stripe n & smask (the
// id space is dense, so stripes grow in lockstep with the item count);
// the slices are grown only under the stripe's latch.
type itemStripe struct {
	rt     []int
	wt     []int
	access []int64
}

// ensure grows the stripe's tables to cover in-stripe index li (caller
// holds the stripe latch).
func (st *itemStripe) ensure(li int) {
	for li >= len(st.rt) {
		st.rt = append(st.rt, 0)
		st.wt = append(st.wt, 0)
		st.access = append(st.access, 0)
	}
}

// txnEntry is one transaction's vector plus lifecycle state, guarded by
// its own lock. Entries are pooled: reclamation marks the entry dead
// and returns it to the pool, and the next create re-tags it with a new
// id and bumps gen. A looker that locked a stale pointer detects the
// recycle because (id, dead) no longer match what it asked for.
type txnEntry struct {
	mu   sync.Mutex
	id   int         // current identity; valid while published
	gen  uint64      // incremented on every recycle (diagnostics, tests)
	dead atomic.Bool // set on reclaim; readable without the entry lock
	vec  *core.Vector
	pins int
	done bool
	// succ: some accepted step was ordered after this vector since it was
	// last flushed (the raise's precondition; StarvationAvoidance only).
	succ bool
}

// lockedTxns is the fixed-capacity result of lockTxns: at most three
// distinct entries — RT(x), WT(x) and the acting transaction — locked
// in ascending id order. It lives on the caller's stack, so the
// steady-state step path allocates nothing.
type lockedTxns struct {
	ids [3]int
	es  [3]*txnEntry
	n   int
}

// get returns the locked entry for id, or nil when id is not locked.
func (lt *lockedTxns) get(id int) *txnEntry {
	switch {
	case lt.ids[0] == id:
		return lt.es[0]
	case lt.n > 1 && lt.ids[1] == id:
		return lt.es[1]
	case lt.n > 2 && lt.ids[2] == id:
		return lt.es[2]
	}
	return nil
}

// unlock releases the locked entries in descending id order.
func (lt *lockedTxns) unlock() {
	for j := lt.n - 1; j >= 0; j-- {
		lt.es[j].mu.Unlock()
	}
}

// DefaultStripes is the latch-table width used by NewStriped.
const DefaultStripes = 128

// NewStriped returns a concurrent MT(k) scheduler with the default
// stripe count. Options are interpreted exactly as by NewScheduler.
func NewStriped(opts Options) *Striped {
	return NewStripedSize(opts, DefaultStripes)
}

// NewStripedSize returns a concurrent MT(k) scheduler with at least
// nStripes latch stripes and its own item-intern table.
func NewStripedSize(opts Options, nStripes int) *Striped {
	return newStriped(opts, nStripes, intern.New())
}

// NewStripedInterned returns a concurrent MT(k) scheduler that shares
// the given intern table (typically the backing store's, so scheduler
// and store agree on item ids and the runtime adapter can run the
// id-indexed fast path end to end).
func NewStripedInterned(opts Options, names *intern.Table) *Striped {
	return newStriped(opts, DefaultStripes, names)
}

func newStriped(opts Options, nStripes int, names *intern.Table) *Striped {
	if opts.K < 1 {
		panic("engine: Options.K must be >= 1")
	}
	s := &Striped{
		opts:    opts,
		k:       opts.K,
		names:   names,
		hot:     hotIDs(opts.HotItems, names),
		latches: core.NewLatchTable(nStripes),
		cols:    newColumns(opts.K, new(sync.Mutex)),
	}
	s.alg = newAlgo(&s.opts, &s.cols)
	s.latches.BindInterner(names)
	s.stripes = make([]itemStripe, s.latches.Stripes())
	s.smask = s.latches.Stripes() - 1
	for 1<<s.nshift < s.latches.Stripes() {
		s.nshift++
	}
	k := opts.K
	s.pool.New = func() any { return &txnEntry{vec: core.NewVector(k)} }
	// TS(0) = <0,*,...,*>: the virtual transaction T_0.
	t0 := s.create(0)
	t0.vec.SetElem(1, 0)
	return s
}

// K returns the vector size.
func (s *Striped) K() int { return s.k }

// Latches exposes the latch table so the runtime adapter can hold an
// operation's item latches across the protocol step AND the data
// access it orders (the atomicity the coarse adapter gets from its
// global mutex).
func (s *Striped) Latches() *core.LatchTable { return s.latches }

// ItemID interns item and returns its dense id (the key for the *ID
// fast-path methods; also a valid index into the shared store when the
// scheduler was built with NewStripedInterned).
func (s *Striped) ItemID(item string) int32 { return s.names.ID(item) }

// StaleRetries returns how many lock-set acquisitions found a
// reclaimed or recycled entry and retried (the pooled-entry generation
// check; test observability).
func (s *Striped) StaleRetries() int64 { return s.staleRetries.Load() }

// lookup returns the published entry for id, or nil. Lock-free; the
// entry may belong to another id by the time it is locked (see
// lockFound).
func (s *Striped) lookup(id int) *txnEntry { return s.txns.Load(id) }

// create returns id's live entry, publishing a pooled one with a slot
// CAS when there is none; only installing its chunk takes the spine's
// mutex.
func (s *Striped) create(id int) *txnEntry {
	if id < 0 {
		panic("engine: negative transaction id")
	}
	for {
		if e := s.txns.Load(id); e != nil {
			if !e.dead.Load() {
				return e
			}
			// Mid-reclaim: its reclaimer clears the slot before it
			// unlocks the entry, so wait for that and look again.
			e.mu.Lock()
			cleared := s.txns.Load(id) != e
			e.mu.Unlock()
			if !cleared {
				runtime.Gosched()
			}
			continue
		}
		e := s.pool.Get().(*txnEntry)
		// Initialize and publish under the entry lock: a straggler holding
		// a stale pointer from the entry's previous identity may lock it
		// and read (id, dead) at any moment. If the previous identity is
		// still mid-reclaim, Get returned before that op's unlock and this
		// block waits for it. The spine's mutex is a leaf, so taking it
		// here (to install a chunk) cannot deadlock.
		e.mu.Lock()
		e.id = id
		e.gen++
		e.dead.Store(false)
		e.done = false
		e.succ = false
		e.pins = 0
		e.vec.Reset()
		if s.txns.CompareAndSwap(id, nil, e) {
			e.mu.Unlock()
			return e
		}
		// Another create won the slot: retire this copy so no straggler
		// takes it for id.
		e.dead.Store(true)
		e.gen++
		e.mu.Unlock()
		s.pool.Put(e)
	}
}

// lockTxns locks the entries for ids[:n] in ascending id order (ids
// are deduplicated here), retrying when an entry was reclaimed or
// recycled between lookup and lock (see lockFound). Every id but weak
// is created on demand; weak (-1 for none) is locked only while it has
// a live entry, and is left out of the result once it has none. The
// result lives in the caller-provided lockedTxns.
func (s *Striped) lockTxns(lt *lockedTxns, ids [3]int, n, weak int) {
	if n > 1 && ids[0] > ids[1] {
		ids[0], ids[1] = ids[1], ids[0]
	}
	if n == 3 {
		if ids[1] > ids[2] {
			ids[1], ids[2] = ids[2], ids[1]
		}
		if ids[0] > ids[1] {
			ids[0], ids[1] = ids[1], ids[0]
		}
	}
	m := 0
	for i := 0; i < n; i++ {
		if m == 0 || ids[i] != ids[m-1] {
			ids[m] = ids[i]
			m++
		}
	}
	for {
		lt.n = 0
		for _, id := range ids[:m] {
			e := s.lookup(id)
			if e == nil || e.dead.Load() {
				if id == weak {
					continue
				}
				e = s.create(id)
			}
			lt.ids[lt.n], lt.es[lt.n] = id, e
			lt.n++
		}
		if s.lockFound(lt) {
			return
		}
	}
}

// lockFound locks the entries lockTxns found, in order, and reports
// whether each still is the live entry of the id it was found under —
// the (id, dead) generation check. A pooled entry re-published for
// another transaction, or read from a spine chunk that was recycled
// for another id range between lookup and lock, fails it; then
// everything is unlocked, the miss counted in StaleRetries, and the
// caller looks up again.
//
// Only the first entry is waited for. A stale pointer stands for
// another id than the one it was found under, so waiting for it while
// holding a lower id's entry could close a cycle that ascending id
// order cannot rule out (the same object may even be found twice).
// When a later entry is busy, everything is unlocked, the holder
// waited out, and false returned.
func (s *Striped) lockFound(lt *lockedTxns) bool {
	for i := 0; i < lt.n; i++ {
		e := lt.es[i]
		if i == 0 {
			e.mu.Lock()
		} else if !e.mu.TryLock() {
			for j := i - 1; j >= 0; j-- {
				lt.es[j].mu.Unlock()
			}
			//lint:ignore SA2001 waits out the holder without holding anything
			e.mu.Lock()
			e.mu.Unlock()
			return false
		}
		if e.dead.Load() || e.id != lt.ids[i] {
			s.staleRetries.Add(1)
			for j := i; j >= 0; j-- {
				lt.es[j].mu.Unlock()
			}
			return false
		}
	}
	return true
}

// Step schedules one atomic operation, acquiring the items' latches
// itself. Multi-item operations process their items in order; the
// first rejecting item rejects the whole operation. The runtime
// adapter, which keeps an item's latch held across the data access the
// step orders, uses StepReadID / StepWriteID instead.
func (s *Striped) Step(op oplog.Op) core.Decision {
	unlock := s.latches.Lock(op.Items...)
	defer unlock()
	d := StepOp(op, s.names, func(id int32) (core.Verdict, int) {
		return s.stepItem(op.Txn, id, op.Kind == oplog.Read)
	})
	// Stamp the rejecting item, or the first one of an accepted operation.
	if d.Verdict == core.Reject || len(op.Items) > 0 {
		x := d.Item
		if d.Verdict != core.Reject {
			x = op.Items[0]
		}
		hook.Observe("engine.decision", x, int64(op.Txn), int64(d.Verdict))
	}
	if s.OnDecision != nil {
		s.OnDecision(d)
	}
	return d
}

// StepReadID runs the read arm of Algorithm 1 for one interned item,
// with the item's latch held by the caller: the single-item fast path
// of Step(oplog.R(txn, item)) with identical decision,
// observation and OnDecision behavior, but no Op construction —
// allocation-free on the steady path.
func (s *Striped) StepReadID(txn int, id int32) (core.Verdict, int) {
	v, blocker := s.stepItem(txn, id, true)
	s.observe(txn, id, oplog.Read, v, blocker)
	return v, blocker
}

// StepWriteID is the write-arm analogue of StepReadID.
func (s *Striped) StepWriteID(txn int, id int32) (core.Verdict, int) {
	v, blocker := s.stepItem(txn, id, false)
	s.observe(txn, id, oplog.Write, v, blocker)
	return v, blocker
}

// observe emits the decision exactly as Step would for the
// single-item op: the explore-harness stamp first (the parity oracle's
// linearization point, still under the item latch), then OnDecision.
// The Decision value is only materialized when someone is listening.
func (s *Striped) observe(txn int, id int32, kind oplog.Kind, v core.Verdict, blocker int) {
	if hook.Enabled() {
		hook.Observe("engine.decision", s.names.Name(id), int64(txn), int64(v))
	}
	if s.OnDecision != nil {
		x := s.names.Name(id)
		d := core.Decision{
			Op:      oplog.Op{Txn: txn, Kind: kind, Items: []string{x}},
			Verdict: v,
		}
		switch v {
		case core.Reject:
			d.Blocker = blocker
			d.Item = x
		case core.AcceptIgnored:
			d.IgnoredItems = d.Op.Items
		}
		s.OnDecision(d)
	}
}

// stepItem runs Algorithm 1 for one item, with the item's latch held
// by the caller. It locks the (at most three) transactions involved,
// decides over their entries, and sets the successor flags, the RT/WT
// indexes and the pin counts before releasing them.
func (s *Striped) stepItem(i int, id int32, read bool) (core.Verdict, int) {
	st := &s.stripes[int(uint32(id))&s.smask]
	li := int(id) >> s.nshift
	st.ensure(li)
	st.access[li]++
	rt, wt := st.rt[li], st.wt[li]
	var lt lockedTxns
	s.lockTxns(&lt, [3]int{rt, wt, i}, 3, -1)
	defer lt.unlock()
	ert, ewt, ei := lt.get(rt), lt.get(wt), lt.get(i)
	// A transaction issuing operations is live: a restarted incarnation
	// after Abort reactivates its (possibly reseeded) vector.
	ei.done = false
	x := itemStep{
		rt: rt, wt: wt, i: i,
		vrt: ert.vec, vwt: ewt.vec, vi: ei.vec,
		succ: ei.succ, shift: s.hotID(st, li, id),
	}
	v, blocker := s.alg.decide(&x, read)
	if x.flagRT {
		ert.succ = true
	}
	if x.flagWT {
		ewt.succ = true
	}
	switch {
	case !x.holder:
	case read:
		s.repin(st.rt, li, i, &lt)
	default:
		s.repin(st.wt, li, i, &lt)
	}
	return v, blocker
}

// hotID reports whether the item qualifies for right-shifted encoding.
// The caller holds the item's latch (access counts live under it).
func (s *Striped) hotID(st *itemStripe, li int, id int32) bool {
	return (int(id) < len(s.hot) && s.hot[id]) ||
		(s.opts.HotThreshold > 0 && int(st.access[li]) >= s.opts.HotThreshold)
}

// repin moves the RT or WT index for the item (table[li], where table
// is the stripe's rt or wt slice) to txn, maintaining pin counts. The
// old holder is always among the locked entries (it was rt/wt when the
// step locked them).
func (s *Striped) repin(table []int, li int, txn int, lt *lockedTxns) {
	old := table[li]
	if old == txn {
		return
	}
	table[li] = txn
	lt.get(txn).pins++
	if old == 0 {
		return
	}
	eo := lt.get(old)
	eo.pins--
	s.maybeReclaim(old, eo)
}

// maybeReclaim recycles the entry once the transaction is finished and
// no longer a most-recent read/write timestamp. The caller holds e.mu.
// The published slot is cleared with a CAS and the entry goes back to
// the pool; it may be locked by a recycler before the caller unlocks
// it, which is safe because create initializes entries under their
// lock.
func (s *Striped) maybeReclaim(id int, e *txnEntry) {
	if id == 0 {
		return
	}
	if e.done && (e.pins <= 0 || s.unsafeEagerReclaim) && !e.dead.Load() {
		e.dead.Store(true)
		e.gen++
		s.txns.CompareAndSwap(id, e, nil)
		s.pool.Put(e)
	}
}

// SetUnsafeEagerReclaim injects a seeded pooled-entry lifecycle bug for
// the schedule-exploration harness: a finished transaction's entry is
// reclaimed even while it is still pinned as an item's most-recent
// read/write timestamp, so a later conflict test against that item
// recreates the transaction with an empty vector and decides against
// the wrong timestamp. Exists only so internal/explore can pin the
// reclamation interleaving as a regression trace
// (testdata/eager_reclaim.trace); set it before traffic flows, never
// outside that harness.
func (s *Striped) SetUnsafeEagerReclaim(v bool) { s.unsafeEagerReclaim = v }

// Commit marks transaction i finished; its vector storage is reclaimed
// as soon as it stops being a most-recent read/write timestamp.
func (s *Striped) Commit(i int) {
	var lt lockedTxns
	s.lockTxns(&lt, [3]int{i, 0, 0}, 1, -1)
	defer lt.unlock()
	e := lt.get(i)
	e.done = true
	s.maybeReclaim(i, e)
}

// Abort discards transaction i; blocker is the Blocker of the
// rejecting Decision (0 for other causes). With StarvationAvoidance
// the vector is flushed and reseeded past the blocker, exactly as in
// Scheduler.Abort.
func (s *Striped) Abort(i, blocker int) {
	if i == 0 {
		return
	}
	// The blocker is locked only while it is live (see
	// algo.restartFloor): an entry created here would never be reclaimed.
	var lt lockedTxns
	n, weak := 1, -1
	if s.opts.StarvationAvoidance && blocker != 0 {
		n = 2
		if blocker != i {
			weak = blocker
		}
	}
	s.lockTxns(&lt, [3]int{i, blocker, 0}, n, weak)
	defer lt.unlock()
	e := lt.get(i)
	var vb *core.Vector
	if eb := lt.get(blocker); eb != nil {
		vb = eb.vec
	}
	if floor, ok := s.alg.restartFloor(blocker, vb); ok {
		s.alg.reseed(i, e.vec, floor)
		e.succ = false
		return
	}
	e.done = true
	s.maybeReclaim(i, e)
}

// wtOf returns WT for an interned item id, 0 when the item has no
// state yet. Caller holds the item's latch.
func (s *Striped) wtOf(id int32) int {
	st := &s.stripes[int(uint32(id))&s.smask]
	li := int(id) >> s.nshift
	if li >= len(st.wt) {
		return 0
	}
	return st.wt[li]
}

// ReadPendingWriterID supports the runtime adapter's immediate-mode
// check ("read ordered after uncommitted writer"): with the item's
// latch HELD by the caller, it reports whether the item's most recent
// writer w (≠ i) is live per the callback and TS(i) < TS(w) is NOT
// established — the lost-update window the adapter must abort. The
// callback must not call back into this scheduler.
func (s *Striped) ReadPendingWriterID(i int, id int32, live func(int) bool) (blocker int, conflict bool) {
	w := s.wtOf(id)
	if w == i || !live(w) {
		return 0, false
	}
	var lt lockedTxns
	s.lockTxns(&lt, [3]int{i, w, 0}, 2, -1)
	defer lt.unlock()
	if !before(lt.get(i).vec, lt.get(w).vec) {
		return w, true
	}
	return 0, false
}

// WritePendingWriterID supports the runtime adapter's immediate-mode
// write guard: with the item's latch HELD by the caller, it reports
// whether the item's most recent writer w (≠ i) is still live per the
// callback. Two uncommitted accepted writes on one item are
// unpublishable under the publish-at-commit discipline — whichever
// commit order occurs, one of the two inverts the decided write order
// — so the adapter aborts the second writer regardless of how the
// vectors compare. The callback must not call back into this scheduler.
func (s *Striped) WritePendingWriterID(i int, id int32, live func(int) bool) (blocker int, conflict bool) {
	w := s.wtOf(id)
	if w == 0 || w == i || !live(w) {
		return 0, false
	}
	return w, true
}

// Vector returns a copy of TS(i). Unknown transactions have the
// all-undefined vector.
func (s *Striped) Vector(i int) *core.Vector {
	var lt lockedTxns
	s.lockTxns(&lt, [3]int{i, 0, 0}, 1, -1)
	defer lt.unlock()
	return lt.get(i).vec.Clone()
}

// RT returns RT(x) (0 if none), taking x's latch. Diagnostics only —
// callers already holding the latch must not use it.
func (s *Striped) RT(x string) int {
	id := s.names.ID(x)
	i := s.latches.StripeOfID(id)
	s.latches.LockStripe(i)
	defer s.latches.UnlockStripe(i)
	st := &s.stripes[int(uint32(id))&s.smask]
	li := int(id) >> s.nshift
	if li >= len(st.rt) {
		return 0
	}
	return st.rt[li]
}

// WT returns WT(x) (0 if none), taking x's latch. Diagnostics only.
func (s *Striped) WT(x string) int {
	id := s.names.ID(x)
	i := s.latches.StripeOfID(id)
	s.latches.LockStripe(i)
	defer s.latches.UnlockStripe(i)
	return s.wtOf(id)
}

// Watermarks returns the monotone counter-consumption watermarks the
// WAL journals.
func (s *Striped) Watermarks() (lo, hi int64) { return s.cols.Watermarks() }

// RaiseWatermarks lifts the counters to at least the given watermarks
// (recovery seeding) in one atomic raise-only clamp.
func (s *Striped) RaiseWatermarks(lo, hi int64) { s.cols.RaiseWatermarks(lo, hi) }

// LiveVectors returns the number of vectors currently held (including
// T_0), for storage-reclamation tests.
func (s *Striped) LiveVectors() int { return s.txns.Len() }

// Snapshot returns copies of all live timestamp vectors keyed by
// transaction id. Entries are locked one at a time, so the result is
// per-vector consistent; quiesce the scheduler for a global snapshot.
func (s *Striped) Snapshot() map[int]*core.Vector {
	out := make(map[int]*core.Vector)
	s.txns.Range(func(id int, e *txnEntry) {
		e.mu.Lock()
		if !e.dead.Load() && e.id == id {
			out[id] = e.vec.Clone()
		}
		e.mu.Unlock()
	})
	return out
}
