package core

import (
	"sort"

	"repro/internal/explore/hook"
	"repro/internal/intern"
)

// LatchTable is a striped per-item latch table: each item maps, by its
// interned id, to one of a fixed set of mutex stripes, and a multi-item
// acquisition takes its stripes in ascending stripe order — the same
// ordered-object locking discipline DMT(k) uses for its per-item vector
// objects (Section V), which makes every acquisition deadlock-free
// regardless of how item sets overlap. Latches are short-term (held for
// one protocol step or one commit's validate-and-publish), unlike the
// 2PL locks in internal/lock, which are held to commit and need
// deadlock detection.
//
// Items stripe by their dense interned id, and by nothing else: the
// id-form methods (StripeOfID, LockStripe, ...) need no more than the
// table, and the by-name methods (StripeOf, Lock) resolve the name
// through the intern.Table the table was bound to (BindInterner) and
// then follow the same rule, so the two forms always latch the same
// stripe.
type LatchTable struct {
	stripes []chanMutex
	mask    uint32
	// unlockFns[i] releases stripe i; built once at construction so the
	// closure-returning Lock API costs no allocation on the single-item
	// steady path.
	unlockFns []func()
	// names resolves the by-name methods' items; nil until BindInterner.
	names *intern.Table
	// resBase is this table's first stripe's process-unique resource id
	// for the explore hook: stripe i is resource resBase+i, so the
	// schedule explorer can track waiters per stripe across any number
	// of coexisting tables.
	resBase uint64
}

// chanMutex is a mutex built on a 1-buffered channel. It behaves like
// sync.Mutex but keeps the latch table self-contained and makes the
// fuzz harness's bounded-wait watchdog meaningful (a lost wakeup would
// park a goroutine forever; the channel send/receive pairing cannot
// lose one).
type chanMutex chan struct{}

func (m chanMutex) lock()   { m <- struct{}{} }
func (m chanMutex) unlock() { <-m }

// NewLatchTable returns a table with at least n stripes (rounded up to
// a power of two, minimum 1).
func NewLatchTable(n int) *LatchTable {
	size := 1
	for size < n {
		size <<= 1
	}
	t := &LatchTable{
		stripes: make([]chanMutex, size),
		mask:    uint32(size - 1),
		resBase: hook.NewResourceRange(size),
	}
	for i := range t.stripes {
		t.stripes[i] = make(chanMutex, 1)
	}
	t.unlockFns = make([]func(), size)
	for i := range t.unlockFns {
		i := i
		t.unlockFns[i] = func() { t.UnlockStripe(i) }
	}
	return t
}

// BindInterner gives the by-name methods the table that produced the
// ids the id-form callers use. Must be called before the table is
// shared between goroutines (it is a construction-time wiring step, not
// a runtime toggle).
func (t *LatchTable) BindInterner(tbl *intern.Table) { t.names = tbl }

// Stripes returns the stripe count.
func (t *LatchTable) Stripes() int { return len(t.stripes) }

// StripeOf returns the stripe index of a named item, interning it on
// first use. It panics on a table that was never bound to an interner:
// such a table has no way to know the item's id.
func (t *LatchTable) StripeOf(item string) int {
	if t.names == nil {
		panic("core: by-name latch on a LatchTable without BindInterner")
	}
	return t.StripeOfID(t.names.ID(item))
}

// StripeOfID returns the stripe index for an interned item id. Two
// items with the same stripe index share a latch (and therefore
// serialize), which is safe but costs concurrency; callers that keep
// per-stripe side state (the striped scheduler's rt/wt tables) key it
// by this index.
func (t *LatchTable) StripeOfID(id int32) int {
	return int(uint32(id) & t.mask)
}

// Lock acquires the latches covering items and returns the unlock
// function. Stripe indices are deduplicated and taken in ascending
// order, so concurrent multi-item acquisitions can never deadlock; the
// unlock function releases in descending order. Lock with no items
// returns a no-op unlock.
func (t *LatchTable) Lock(items ...string) func() {
	switch len(items) {
	case 0:
		return nop
	case 1:
		i := t.StripeOf(items[0])
		t.LockStripe(i)
		return t.unlockFns[i]
	}
	idx := make([]int, 0, len(items))
	for _, x := range items {
		idx = append(idx, t.StripeOf(x))
	}
	sort.Ints(idx)
	// Deduplicate in place: the same stripe may back several items.
	uniq := idx[:1]
	for _, i := range idx[1:] {
		if i != uniq[len(uniq)-1] {
			uniq = append(uniq, i)
		}
	}
	return t.LockStripes(uniq)
}

var nop = func() {}

// LockStripes acquires the given stripe indices, which MUST be sorted
// ascending and deduplicated (Lock prepares them; exported for callers
// that cache stripe indices across acquisitions).
func (t *LatchTable) LockStripes(sorted []int) func() {
	if len(sorted) == 1 {
		t.LockStripe(sorted[0])
		return t.unlockFns[sorted[0]]
	}
	t.LockStripesSorted(sorted)
	return func() { t.UnlockStripesSorted(sorted) }
}

// LockStripesSorted acquires the given stripes, which MUST be sorted
// ascending and deduplicated. Paired with UnlockStripesSorted, it is
// the allocation-free form of LockStripes for callers that keep the
// stripe slice themselves.
func (t *LatchTable) LockStripesSorted(sorted []int) {
	for _, i := range sorted {
		t.LockStripe(i)
	}
}

// UnlockStripesSorted releases stripes previously acquired with
// LockStripesSorted, in descending order.
func (t *LatchTable) UnlockStripesSorted(sorted []int) {
	for j := len(sorted) - 1; j >= 0; j-- {
		t.UnlockStripe(sorted[j])
	}
}

// LockStripe acquires one stripe. Under the schedule explorer the
// acquisition is controlled: the hook try-loops a non-blocking lock
// attempt, parking the goroutine between failures, so a latch wait is a
// scheduling decision rather than a wall-clock block. In production the
// hook declines (one atomic load, checked before the try-closure is
// even built so the steady path allocates nothing) and the plain
// channel send runs.
func (t *LatchTable) LockStripe(i int) {
	m := t.stripes[i]
	if hook.Enabled() {
		if hook.TryAcquire(t.resBase+uint64(i), "latch.acquire", func() bool {
			select {
			case m <- struct{}{}:
				return true
			default:
				return false
			}
		}) {
			return
		}
	}
	m.lock()
}

// UnlockStripe releases one stripe and notifies controlled waiters.
func (t *LatchTable) UnlockStripe(i int) {
	t.stripes[i].unlock()
	hook.Release(t.resBase + uint64(i))
}
