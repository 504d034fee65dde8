// Package interval implements the dynamic timestamp-interval baseline of
// Bayer et al. [1], the related work the paper compares against in
// Section VI-A. Every transaction starts with the full timestamp interval
// (0, 2⁶²) which shrinks explicitly each time a dependency is discovered:
// to encode T_a -> T_b a split point c is chosen inside the overlap of the
// two intervals, T_a keeps the part below c and T_b the part above. A
// dependency between two already-disjoint intervals in the wrong order
// aborts.
//
// The paper's criticisms are all observable here: the split-point choice
// is a policy knob (SplitMid/SplitLow/SplitHigh), intervals shrink
// exponentially and can be exhausted (fragmentation), and a restarted
// transaction that always receives the full interval can starve.
package interval

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/sched"
	"repro/internal/storage"
)

// SplitPolicy selects the split point c inside the overlap of two
// intervals when a dependency is encoded.
type SplitPolicy int

// Split policies.
const (
	// SplitMid picks the midpoint of the overlap.
	SplitMid SplitPolicy = iota
	// SplitLow leaves the predecessor the smallest possible interval.
	SplitLow
	// SplitHigh leaves the successor the smallest possible interval.
	SplitHigh
)

// MaxTimestamp bounds the timestamp space.
const MaxTimestamp = int64(1) << 62

// Options configures the interval scheduler.
type Options struct {
	Policy SplitPolicy
	// NoCompact disables timestamp-space compaction, exposing the raw
	// fragmentation/starvation behaviour for the Section VI-A
	// comparison experiment.
	NoCompact bool
}

// txnState holds a live transaction's interval (lo, hi), exclusive of lo.
type txnState struct {
	lo, hi int64 // interval (lo, hi]; valid while lo < hi
	writes map[string]int64
	order  []string
}

// Interval is the Bayer-style runtime scheduler.
type Interval struct {
	mu    sync.Mutex
	opts  Options
	store *storage.Store
	txns  map[int]*txnState
	// rt/wt track the most recent reader/writer ids per item, exactly
	// like MT(k)'s indices, so both schemes see identical dependencies.
	rt, wt map[string]int
	// fin records final intervals of finished transactions still
	// referenced by rt/wt.
	fin map[int]*txnState
	// exhausted counts dependencies that failed only because an overlap
	// had shrunk to nothing (fragmentation).
	exhausted int64
	// compactions counts order-preserving renumberings of the timestamp
	// space. Without them, a hot-item chain exhausts the space after
	// ~62 midpoint splits and every later transaction starves — the
	// fragmentation problem of Section VI-A item 3. Compaction is the
	// extra machinery interval schemes need and vectors do not.
	compactions int64
}

// New returns an interval scheduler over the store.
func New(store *storage.Store, opts Options) *Interval {
	iv := &Interval{
		opts:  opts,
		store: store,
		txns:  make(map[int]*txnState),
		rt:    make(map[string]int),
		wt:    make(map[string]int),
		fin:   make(map[int]*txnState),
	}
	// The virtual transaction 0 owns the degenerate interval (0, 0]: it
	// precedes everything.
	iv.fin[0] = &txnState{lo: 0, hi: 0}
	return iv
}

// Name implements sched.Scheduler.
func (iv *Interval) Name() string { return "Interval" }

// Exhausted returns how many aborts were caused purely by interval
// fragmentation (the overlap existed order-wise but had no room left).
func (iv *Interval) Exhausted() int64 {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	return iv.exhausted
}

// Begin implements sched.Scheduler: every (re)start receives the full
// interval — the fixed-restart-range behaviour whose starvation the paper
// points out in Section VI-A item 4.
func (iv *Interval) Begin(txn int) {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	iv.txns[txn] = &txnState{lo: 0, hi: MaxTimestamp, writes: make(map[string]int64)}
	delete(iv.fin, txn)
}

// live returns txn's live incarnation, or — for a stray operation on a
// transaction that never began or has finished — the plain abort
// sched.Scheduler's contract asks for; an interval parked in fin is for
// the rt/wt indices only.
func (iv *Interval) live(txn int) (*txnState, error) {
	st := iv.txns[txn]
	if st == nil {
		return nil, sched.Abort(txn, 0, "no live incarnation")
	}
	return st, nil
}

// state returns the interval of a transaction the rt/wt indices name:
// live, or finished and parked in fin.
func (iv *Interval) state(txn int) *txnState {
	if st := iv.txns[txn]; st != nil {
		return st
	}
	if st := iv.fin[txn]; st != nil {
		return st
	}
	panic(fmt.Sprintf("interval: operation on unknown transaction %d", txn))
}

// before reports whether a's interval already lies entirely before b's.
func before(a, b *txnState) bool { return a.hi <= b.lo }

// encode shrinks the two intervals so that a precedes b, reporting
// success. policyC picks the split point within (max(lo), min(hi)).
func (iv *Interval) encode(a, b *txnState) bool {
	if a == b {
		return true
	}
	if before(a, b) {
		return true
	}
	if before(b, a) {
		return false // the reverse order is already committed to
	}
	lo := max64(a.lo, b.lo)
	hi := min64(a.hi, b.hi)
	if hi-lo < 2 { // no room for a strict split: fragmentation
		iv.exhausted++
		if iv.opts.NoCompact {
			return false
		}
		iv.compact()
		lo = max64(a.lo, b.lo)
		hi = min64(a.hi, b.hi)
		if hi-lo < 2 {
			return false
		}
	}
	var c int64
	switch iv.opts.Policy {
	case SplitLow:
		c = lo + 1
	case SplitHigh:
		c = hi - 1
	default:
		c = lo + (hi-lo)/2
	}
	a.hi = c
	if c > b.lo {
		b.lo = c
	}
	if a.lo >= a.hi || b.lo >= b.hi {
		// A degenerate interval can no longer order against anything new;
		// treat as exhaustion.
		iv.exhausted++
		return false
	}
	return true
}

// compact renumbers the timestamp space with an order-preserving
// bijection on interval endpoints: the k-th smallest endpoint maps to
// k·(MaxTimestamp/(n+1)). Overlaps stay overlaps and disjoint orders are
// preserved, so no established relation changes, but midpoint splits get
// fresh room. This is the extra maintenance interval-based schemes
// require; the paper's vectors avoid it entirely.
func (iv *Interval) compact() {
	iv.compactions++
	endpoints := map[int64]bool{}
	states := make([]*txnState, 0, len(iv.txns)+len(iv.fin))
	for _, st := range iv.txns {
		states = append(states, st)
	}
	for t, st := range iv.fin {
		if t == 0 {
			continue // the virtual (0,0] stays fixed
		}
		states = append(states, st)
	}
	for _, st := range states {
		endpoints[st.lo] = true
		endpoints[st.hi] = true
	}
	sorted := make([]int64, 0, len(endpoints))
	for e := range endpoints {
		sorted = append(sorted, e)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	span := MaxTimestamp / int64(len(sorted)+1)
	remap := make(map[int64]int64, len(sorted))
	for i, e := range sorted {
		v := int64(i+1) * span
		if e == 0 {
			v = 0 // endpoints at the virtual boundary stay put
		}
		remap[e] = v
	}
	for _, st := range states {
		st.lo = remap[st.lo]
		st.hi = remap[st.hi]
	}
}

// Compactions returns how many space renumberings have run.
func (iv *Interval) Compactions() int64 {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	return iv.compactions
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// maxHolder picks RT(x) or WT(x) with the later interval (by lower bound).
func (iv *Interval) maxHolder(x string) int {
	r, w := iv.rt[x], iv.wt[x]
	if r == w {
		return r
	}
	if iv.state(r).lo < iv.state(w).lo {
		return w
	}
	return r
}

// Read implements sched.Scheduler.
func (iv *Interval) Read(txn int, item string) (int64, error) {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	st, err := iv.live(txn)
	if err != nil {
		return 0, err
	}
	if v, ok := st.writes[item]; ok {
		return v, nil
	}
	j := iv.maxHolder(item)
	if !iv.encode(iv.state(j), st) {
		return 0, sched.Abort(txn, j, "interval order violated")
	}
	iv.rt[item] = txn
	return iv.store.Get(item), nil
}

// Write implements sched.Scheduler (deferred validation at commit).
func (iv *Interval) Write(txn int, item string, v int64) error {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	st, err := iv.live(txn)
	if err != nil {
		return err
	}
	if _, ok := st.writes[item]; !ok {
		st.order = append(st.order, item)
	}
	st.writes[item] = v
	return nil
}

// Commit implements sched.Scheduler.
func (iv *Interval) Commit(txn int) error {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	st, err := iv.live(txn)
	if err != nil {
		return err
	}
	for _, x := range st.order {
		j := iv.maxHolder(x)
		if !iv.encode(iv.state(j), st) {
			// Park the state exactly as Abort does: the transaction's reads
			// (and the writes validated so far) already set rt/wt to it.
			iv.fin[txn] = st
			delete(iv.txns, txn)
			return sched.Abort(txn, j, "interval order violated at commit")
		}
		iv.wt[x] = txn
	}
	iv.store.Apply(st.writes)
	// Keep the final interval while rt/wt may still reference it.
	iv.fin[txn] = st
	delete(iv.txns, txn)
	iv.gc()
	return nil
}

// Abort implements sched.Scheduler.
func (iv *Interval) Abort(txn int) {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	if st := iv.txns[txn]; st != nil {
		// The shrunk interval stays visible through rt — conservative,
		// like MT(k)'s aborted-reader residue.
		iv.fin[txn] = st
		delete(iv.txns, txn)
	}
	iv.gc()
}

// gc drops finished intervals no longer referenced by any rt/wt index.
func (iv *Interval) gc() {
	ref := map[int]bool{0: true}
	for _, t := range iv.rt {
		ref[t] = true
	}
	for _, t := range iv.wt {
		ref[t] = true
	}
	for t := range iv.fin {
		if !ref[t] {
			delete(iv.fin, t)
		}
	}
}

// Width returns the current interval width of a transaction (tests and
// the fragmentation experiment).
func (iv *Interval) Width(txn int) int64 {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	st := iv.state(txn)
	return st.hi - st.lo
}
