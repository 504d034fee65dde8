package engine

import (
	"slices"
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
// chunked, atomically published table indexed by txn id and are
// recycled through a sync.Pool. A steady-state step — intern hit,
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

	// tmu serializes txn-table growth and slot publication (create is
	// the only writer); lookups are lock-free loads of the spine, whose
	// published header only ever grows (see growSpine). tmu
	// orders BEFORE the per-entry locks: create initializes a pooled
	// entry under its lock while holding tmu, and no path acquires tmu
	// while holding an entry lock (reclamation clears slots with a CAS,
	// not under tmu, precisely to keep this acyclic).
	tmu   sync.Mutex
	spine atomic.Pointer[[]*txnChunk]
	live  atomic.Int64 // published, unreclaimed entries (including T_0)
	pool  sync.Pool    // *txnEntry, vectors pre-sized to k
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

// txnChunk is one fixed block of the transaction table. Chunks never
// move once published, so a slot pointer read is one atomic load.
const (
	txnChunkBits = 8
	txnChunkSize = 1 << txnChunkBits
	txnChunkMask = txnChunkSize - 1
)

type txnChunk struct {
	slots [txnChunkSize]atomic.Pointer[txnEntry]
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

// lookup returns the published entry for id, or nil. Lock-free.
func (s *Striped) lookup(id int) *txnEntry {
	sp := s.spine.Load()
	if sp == nil {
		return nil
	}
	hi := id >> txnChunkBits
	if hi >= len(*sp) {
		return nil
	}
	ch := (*sp)[hi]
	if ch == nil {
		return nil
	}
	return ch.slots[id&txnChunkMask].Load()
}

// create publishes an entry for id under tmu, installing its chunk
// first when the spine has none there yet.
func (s *Striped) create(id int) *txnEntry {
	if id < 0 {
		panic("engine: negative transaction id")
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	hi := id >> txnChunkBits
	var chunks []*txnChunk
	if sp := s.spine.Load(); sp != nil {
		chunks = *sp
	}
	if hi >= len(chunks) || chunks[hi] == nil {
		chunks = s.growSpine(chunks, hi)
	}
	slot := &chunks[hi].slots[id&txnChunkMask]
	if e := slot.Load(); e != nil && !e.dead.Load() {
		return e
	}
	e := s.pool.Get().(*txnEntry)
	// Initialize under the entry lock: a straggler holding a stale
	// pointer from the entry's previous identity may lock it and read
	// (id, dead) at any moment. If the previous identity is still
	// mid-reclaim, Get returned before that op's unlock and this block
	// waits for it — reclamation never acquires tmu, so holding it here
	// cannot deadlock.
	e.mu.Lock()
	e.id = id
	e.gen++
	e.dead.Store(false)
	e.done = false
	e.succ = false
	e.pins = 0
	e.vec.Reset()
	e.mu.Unlock()
	slot.Store(e)
	s.live.Add(1)
	return e
}

// growSpine publishes a spine with a fresh chunk at index hi (tmu
// held). Lookups only index below the length of the header they
// loaded, so past the published length the spare capacity is written
// in place and a longer header published over it (as intern.Table
// publishes names), the array doubling when it runs out: minting ids
// costs amortized O(1) per chunk, not a copy of the whole spine. Only a
// hole below the published length (ids first used out of order) takes
// a fresh copy — a lookup may be reading that slot right now.
func (s *Striped) growSpine(chunks []*txnChunk, hi int) []*txnChunk {
	switch {
	case hi < len(chunks):
		chunks = slices.Clone(chunks)
	case hi < cap(chunks):
		chunks = chunks[:hi+1]
	default:
		grown := make([]*txnChunk, hi+1, max(2*cap(chunks), hi+1))
		copy(grown, chunks)
		chunks = grown
	}
	chunks[hi] = &txnChunk{}
	s.spine.Store(&chunks)
	return chunks
}

// lockTxns locks the entries for ids[:n] in ascending id order (ids
// are deduplicated here), retrying when an entry was reclaimed or
// recycled between lookup and lock — detected by the (id, dead)
// generation check, since a pooled entry that was re-published for a
// different transaction no longer carries the id it was looked up
// under. Every id but weak is created on demand; weak (-1 for none) is
// locked only while it has a live entry, and is left out of the result
// once it has none. The result lives in the caller-provided lockedTxns.
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
retry:
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
		for i := 0; i < lt.n; i++ {
			e := lt.es[i]
			e.mu.Lock()
			if e.dead.Load() || e.id != lt.ids[i] {
				s.staleRetries.Add(1)
				for j := i; j >= 0; j-- {
					lt.es[j].mu.Unlock()
				}
				continue retry
			}
		}
		return
	}
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
// The published slot is cleared with a CAS (not under tmu — see the
// tmu comment) and the entry goes back to the pool; it may be locked
// by a recycler before the caller unlocks it, which is safe because
// create initializes entries under their lock.
func (s *Striped) maybeReclaim(id int, e *txnEntry) {
	if id == 0 {
		return
	}
	if e.done && (e.pins <= 0 || s.unsafeEagerReclaim) && !e.dead.Load() {
		e.dead.Store(true)
		e.gen++
		if sp := s.spine.Load(); sp != nil {
			hi := id >> txnChunkBits
			if hi < len(*sp) && (*sp)[hi] != nil {
				(*sp)[hi].slots[id&txnChunkMask].CompareAndSwap(e, nil)
			}
		}
		s.live.Add(-1)
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
func (s *Striped) LiveVectors() int { return int(s.live.Load()) }

// Snapshot returns copies of all live timestamp vectors keyed by
// transaction id. Entries are locked one at a time, so the result is
// per-vector consistent; quiesce the scheduler for a global snapshot.
func (s *Striped) Snapshot() map[int]*core.Vector {
	out := make(map[int]*core.Vector)
	sp := s.spine.Load()
	if sp == nil {
		return out
	}
	for hi, ch := range *sp {
		if ch == nil {
			continue
		}
		for lo := range ch.slots {
			e := ch.slots[lo].Load()
			if e == nil {
				continue
			}
			want := hi<<txnChunkBits | lo
			e.mu.Lock()
			if !e.dead.Load() && e.id == want {
				out[want] = e.vec.Clone()
			}
			e.mu.Unlock()
		}
	}
	return out
}
