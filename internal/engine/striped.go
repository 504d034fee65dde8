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
//  3. a counter lock guards the lcount/ucount pair and the per-column
//     clock, taken last, for the duration of a kernel encode.
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

	// cmu guards the counters, the column clock, and the reusable
	// encode sink.
	cmu      sync.Mutex
	counters *LocalCounters
	clock    []int64
	sink     stripedSink

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

// get returns the locked entry for id (which must be one of the locked
// ids).
func (lt *lockedTxns) get(id int) *txnEntry {
	if lt.ids[0] == id {
		return lt.es[0]
	}
	if lt.n > 1 && lt.ids[1] == id {
		return lt.es[1]
	}
	return lt.es[2]
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
		opts:     opts,
		k:        opts.K,
		names:    names,
		hot:      hotIDs(opts.HotItems, names),
		latches:  core.NewLatchTable(nStripes),
		counters: NewLocalCounters(),
		clock:    make([]int64, opts.K),
	}
	s.latches.BindInterner(names)
	s.stripes = make([]itemStripe, s.latches.Stripes())
	s.smask = s.latches.Stripes() - 1
	for 1<<s.nshift < s.latches.Stripes() {
		s.nshift++
	}
	k := opts.K
	s.pool.New = func() any { return &txnEntry{vec: core.NewVector(k)} }
	// TS(0) = <0,*,...,*>: the virtual transaction T_0.
	t0 := s.entry(0)
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

// entry returns the live entry for id, creating (or recycling from the
// pool) one on demand.
func (s *Striped) entry(id int) *txnEntry {
	if e := s.lookup(id); e != nil && !e.dead.Load() {
		return e
	}
	return s.create(id)
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
// under. The result lives in the caller-provided lockedTxns.
func (s *Striped) lockTxns(lt *lockedTxns, ids [3]int, n int) {
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
		if m == 0 || ids[i] != lt.ids[m-1] {
			lt.ids[m] = ids[i]
			m++
		}
	}
retry:
	for {
		for i := 0; i < m; i++ {
			lt.es[i] = s.entry(lt.ids[i])
		}
		for i := 0; i < m; i++ {
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
		lt.n = m
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

// stepItem runs the read or write arm of Algorithm 1 for one item,
// with the item's latch held by the caller. It locks the (at most
// three) transactions involved, makes the decision, and updates the
// RT/WT indexes and pin counts before releasing them.
func (s *Striped) stepItem(i int, id int32, read bool) (core.Verdict, int) {
	st := &s.stripes[int(uint32(id))&s.smask]
	li := int(id) >> s.nshift
	st.ensure(li)
	st.access[li]++
	rt, wt := st.rt[li], st.wt[li]
	var lt lockedTxns
	s.lockTxns(&lt, [3]int{rt, wt, i}, 3)
	defer lt.unlock()
	ei := lt.get(i)
	// A transaction issuing operations is live: a restarted incarnation
	// after Abort reactivates its (possibly reseeded) vector.
	ei.done = false
	// maxHolder: j := RT(x) or WT(x), whichever timestamp is larger.
	j, ej := rt, lt.get(rt)
	if rt != wt && s.vecLess(lt.get(rt).vec, lt.get(wt).vec) {
		j, ej = wt, lt.get(wt)
	}
	shift := s.hotID(st, li, id)
	if read {
		if s.setDep(j, i, ej, ei, shift) || s.raise(j, i, ej, ei, shift) {
			// Both holders are now ordered before i (see
			// Scheduler.stepItem); flag them before the repin, which
			// may reclaim the old holder.
			s.follow(&lt, rt, i)
			s.follow(&lt, wt, i)
			s.repin(st.rt, li, i, &lt)
			return core.Accept, 0
		}
		// Line 9: the read may slot between the most recent write and
		// the most recent read without becoming the most recent reader:
		// after WT(x) only. Only a flagged i gets here under
		// StarvationAvoidance (see Scheduler.stepItem).
		if j == rt {
			if s.opts.RelaxedReadCheck {
				if s.setDep(wt, i, lt.get(wt), ei, shift) {
					s.follow(&lt, wt, i)
					return core.Accept, 0
				}
			} else if wt != i && s.vecLess(lt.get(wt).vec, ei.vec) {
				s.follow(&lt, wt, i)
				return core.Accept, 0
			}
		}
		return core.Reject, j
	}
	if s.setDep(j, i, ej, ei, shift) || s.raise(j, i, ej, ei, shift) {
		s.follow(&lt, rt, i)
		s.follow(&lt, wt, i)
		s.repin(st.wt, li, i, &lt)
		return core.Accept, 0
	}
	// Thomas write rule: if TS(RT(x)) < TS(i) < TS(WT(x)), the write is
	// obsolete and can be ignored: after RT(x) only.
	if s.opts.ThomasWriteRule && j == wt && i != wt && s.vecLess(ei.vec, lt.get(wt).vec) &&
		s.setDep(rt, i, lt.get(rt), ei, shift) {
		s.follow(&lt, rt, i)
		return core.AcceptIgnored, 0
	}
	return core.Reject, j
}

// follow is Scheduler.follow over the locked entries: under
// StarvationAvoidance, an accepted step of i was ordered after holder h.
func (s *Striped) follow(lt *lockedTxns, h, i int) {
	if s.opts.StarvationAvoidance && h != i && h != 0 {
		lt.get(h).succ = true
	}
}

// raise is Scheduler.raise over the locked entries: the III-D-4 reseed
// of a transaction no accepted step was ordered after, in place of the
// rejection, then Set(j, i) again.
func (s *Striped) raise(j, i int, ej, ei *txnEntry, shift bool) bool {
	if !s.opts.StarvationAvoidance || ei.succ {
		return false
	}
	s.reseed(i, ei, ej.vec.Elem(1).V)
	return s.setDep(j, i, ej, ei, shift)
}

// vecLess reports a < b established, mirroring VectorTable.Less for
// already-locked vectors.
func (s *Striped) vecLess(a, b *core.Vector) bool {
	if a == b {
		return false
	}
	return a.Less(b)
}

// hotID reports whether the item qualifies for right-shifted encoding.
// The caller holds the item's latch (access counts live under it).
func (s *Striped) hotID(st *itemStripe, li int, id int32) bool {
	return (int(id) < len(s.hot) && s.hot[id]) ||
		(s.opts.HotThreshold > 0 && int(st.access[li]) >= s.opts.HotThreshold)
}

// setDep is procedure Set(j, i) with both entries locked; shift is the
// item's hot-encoding eligibility (precomputed under its latch).
func (s *Striped) setDep(j, i int, ej, ei *txnEntry, shift bool) bool {
	if j == i {
		return true
	}
	rel, _ := ej.vec.Compare(ei.vec)
	if rel == core.Greater {
		return false
	}
	if rel == core.Less {
		if s.opts.Trace != nil {
			s.opts.Trace(core.Event{Kind: core.EvEstablished, J: j, I: i})
		}
		return true
	}
	if !s.encode(j, i, ej, ei, shift) {
		return false
	}
	if s.opts.Trace != nil {
		s.opts.Trace(core.Event{Kind: core.EvEncode, J: j, I: i})
	}
	return true
}

// assign sets element pos of id's (locked) vector and advances the
// column clock. The caller holds cmu.
func (s *Striped) assign(id int, e *txnEntry, pos int, val int64) {
	e.vec.SetElem(pos, val)
	if val > s.clock[pos-1] {
		s.clock[pos-1] = val
	}
	if s.opts.Trace != nil {
		s.opts.Trace(core.Event{Kind: core.EvAssign, Txn: id, Pos: pos, Val: val})
	}
}

// upper returns the value for a fresh "greater" element in column m
// (cmu held), mirroring VectorTable.upper.
func (s *Striped) upper(m int, floor int64) int64 {
	v := floor + 1
	if s.opts.MonotonicEncoding && s.clock[m-1]+1 > v {
		v = s.clock[m-1] + 1
	}
	return v
}

// stripedSink routes kernel assignments into the locked entries,
// advancing the clock and the trace hook. The encode holds cmu, which
// also guards the scheduler's single reusable sink value: passing its
// address avoids re-boxing a fresh Sink interface per encode.
type stripedSink struct {
	s      *Striped
	j, i   int
	ej, ei *txnEntry
}

func (k *stripedSink) Assign(side Side, pos int, val int64) {
	if side == SideJ {
		k.s.assign(k.j, k.ej, pos, val)
	} else {
		k.s.assign(k.i, k.ei, pos, val)
	}
}

func (k *stripedSink) Upper(m int, floor int64) int64 { return k.s.upper(m, floor) }

// encode runs the kernel's Set(j, i) over the two locked entries. The
// element assignments and counter allocations run under cmu so the
// lcount/ucount interaction stays atomic.
func (s *Striped) encode(j, i int, ej, ei *txnEntry, shift bool) bool {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.sink = stripedSink{s: s, j: j, i: i, ej: ej, ei: ei}
	return Dep{
		J: j, I: i,
		VJ: ej.vec, VI: ei.vec,
		K:     s.k,
		Alloc: s.counters,
		Sink:  &s.sink,
		Shift: shift,
	}.Encode()
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
	s.lockTxns(&lt, [3]int{i, 0, 0}, 1)
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
	var lt lockedTxns
	if s.opts.StarvationAvoidance && blocker != 0 {
		s.lockTxns(&lt, [3]int{i, blocker, 0}, 2)
		if b := lt.get(blocker).vec.Elem(1); b.Defined {
			s.reseed(i, lt.get(i), b.V)
			lt.unlock()
			return
		}
	} else {
		s.lockTxns(&lt, [3]int{i, 0, 0}, 1)
	}
	e := lt.get(i)
	e.done = true
	s.maybeReclaim(i, e)
	lt.unlock()
}

// reseed is the starvation reseed of i's (locked) vector past floor, the
// blocker's first element: VectorTable.ReseedFirst under the entry lock,
// as Scheduler.reseed does it. The flushed vector has no successor.
func (s *Striped) reseed(i int, e *txnEntry, floor int64) {
	s.cmu.Lock()
	seed := floor + 1
	if c := s.clock[0] + 1; c > seed {
		seed = c
	}
	if s.k == 1 {
		seed = s.counters.ReserveAtLeast(seed)
	}
	e.vec.Reset()
	s.assign(i, e, 1, seed)
	s.cmu.Unlock()
	e.succ = false
	if s.opts.Trace != nil {
		s.opts.Trace(core.Event{Kind: core.EvFlush, Txn: i, Val: seed})
	}
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
	s.lockTxns(&lt, [3]int{i, w, 0}, 2)
	defer lt.unlock()
	if !s.vecLess(lt.get(i).vec, lt.get(w).vec) {
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
	s.lockTxns(&lt, [3]int{i, 0, 0}, 1)
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
func (s *Striped) Watermarks() (lo, hi int64) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.counters.Watermarks()
}

// RaiseWatermarks lifts the counters to at least the given watermarks
// (recovery seeding) in one atomic raise-only clamp.
func (s *Striped) RaiseWatermarks(lo, hi int64) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.counters.Raise(lo, hi)
}

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
