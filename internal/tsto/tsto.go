// Package tsto implements the conventional single-valued timestamp-
// ordering baseline (the protocol P4 of SDD-1 [4] / basic T/O of [2]):
// every transaction gets a scalar timestamp at Begin, and all conflicting
// operations must occur in timestamp order against per-item read/write
// high-water marks. This is exactly the "premature serialization order"
// comparator that Example 1 of the paper improves upon.
package tsto

import (
	"sync"

	"repro/internal/sched"
	"repro/internal/storage"
)

// Options configures the TO scheduler.
type Options struct {
	// ThomasWriteRule silently skips obsolete writes (ts < wt(x)) instead
	// of aborting, provided no later read has seen the item.
	ThomasWriteRule bool
	// DeferWrites validates writes at commit time (against the final
	// high-water marks) rather than at write time.
	DeferWrites bool
}

// TO is the single-valued timestamp-ordering runtime scheduler.
type TO struct {
	mu    sync.Mutex
	opts  Options
	store *storage.Store
	next  int64
	rts   map[string]int64 // read high-water mark per item
	wts   map[string]int64 // write high-water mark per item
	wtxn  map[string]int   // id of the transaction holding wts (immediate mode)
	txns  map[int]*txnState
}

type txnState struct {
	ts     int64
	writes map[string]int64
	order  []string
}

// New returns a TO(1) scheduler over the store.
func New(store *storage.Store, opts Options) *TO {
	return &TO{
		opts:  opts,
		store: store,
		rts:   make(map[string]int64),
		wts:   make(map[string]int64),
		wtxn:  make(map[string]int),
		txns:  make(map[int]*txnState),
	}
}

// Name implements sched.Scheduler.
func (t *TO) Name() string { return "TO(1)" }

// Begin implements sched.Scheduler: each (re)start draws a fresh
// timestamp, so a retried transaction serializes later.
func (t *TO) Begin(txn int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.txns[txn] = &txnState{ts: t.next, writes: make(map[string]int64)}
}

// Timestamp returns the scalar timestamp of a live transaction (tests).
func (t *TO) Timestamp(txn int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.txns[txn]; st != nil {
		return st.ts
	}
	return 0
}

// state returns txn's live incarnation, or — for a stray operation on a
// transaction that never began or has finished — the plain abort
// sched.Scheduler's contract asks for.
func (t *TO) state(txn int) (*txnState, error) {
	st := t.txns[txn]
	if st == nil {
		return nil, sched.Abort(txn, 0, "no live incarnation")
	}
	return st, nil
}

// Read implements sched.Scheduler: rejected when a newer write exists
// (ts < wt(x)); otherwise advances rt(x).
func (t *TO) Read(txn int, item string) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, err := t.state(txn)
	if err != nil {
		return 0, err
	}
	if v, ok := st.writes[item]; ok {
		return v, nil
	}
	if st.ts < t.wts[item] {
		return 0, sched.Abort(txn, 0, "read too late")
	}
	// Immediate mode publishes wt(x) at write time but data at commit: a
	// read past a live writer would see stale data while serializing
	// after the writer — abort instead (no dirty-read window).
	if w := t.wtxn[item]; w != 0 && w != txn {
		if _, live := t.txns[w]; live {
			return 0, sched.Abort(txn, w, "read over uncommitted writer")
		}
	}
	if st.ts > t.rts[item] {
		t.rts[item] = st.ts
	}
	return t.store.Get(item), nil
}

// validateWrite applies the TO write rules for one item, returning
// (skip, err): skip means the Thomas rule drops the write.
func (t *TO) validateWrite(st *txnState, txn int, item string) (bool, error) {
	if st.ts < t.rts[item] {
		return false, sched.Abort(txn, 0, "write after later read")
	}
	if st.ts < t.wts[item] {
		if t.opts.ThomasWriteRule {
			return true, nil
		}
		return false, sched.Abort(txn, 0, "write after later write")
	}
	t.wts[item] = st.ts
	t.wtxn[item] = txn
	return false, nil
}

// Write implements sched.Scheduler.
//
// Immediate mode admits at most one uncommitted writer per item, as
// sched.MT.Write does: wt(x) is published at write time but the data
// only at commit, so two live writers would publish in commit order and
// the older one committing last would clobber the younger's committed
// value. The second writer aborts before the timestamp rules run.
func (t *TO) Write(txn int, item string, v int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, err := t.state(txn)
	if err != nil {
		return err
	}
	if !t.opts.DeferWrites {
		if w := t.wtxn[item]; w != 0 && w != txn {
			if _, live := t.txns[w]; live {
				return sched.Abort(txn, w, "write conflicts with uncommitted writer")
			}
		}
		skip, err := t.validateWrite(st, txn, item)
		if err != nil {
			return err
		}
		if skip {
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

// Commit implements sched.Scheduler.
func (t *TO) Commit(txn int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, err := t.state(txn)
	if err != nil {
		return err
	}
	apply := make(map[string]int64, len(st.writes))
	for x, v := range st.writes {
		apply[x] = v
	}
	if t.opts.DeferWrites {
		for _, x := range st.order {
			skip, err := t.validateWrite(st, txn, x)
			if err != nil {
				delete(t.txns, txn)
				return err
			}
			if skip {
				delete(apply, x)
			}
		}
	}
	t.store.Apply(apply)
	delete(t.txns, txn)
	return nil
}

// Abort implements sched.Scheduler.
func (t *TO) Abort(txn int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.txns, txn)
}
