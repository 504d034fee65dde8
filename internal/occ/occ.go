// Package occ implements the optimistic concurrency-control baseline
// (Kung-Robinson serial validation), the "wait till the end of the
// transaction to make a commit/abort decision" comparator from the
// paper's introduction [13]. Reads and writes always succeed; at commit
// the transaction's read set is validated against the write sets of every
// transaction that committed after it began.
package occ

import (
	"sync"

	"repro/internal/sched"
	"repro/internal/storage"
)

// OCC is the optimistic runtime scheduler.
type OCC struct {
	mu    sync.Mutex
	store *storage.Store
	// committed is the validation log: write sets of committed
	// transactions tagged with their commit sequence number.
	committed []committedTxn
	commitSeq int64
	txns      map[int]*txnState
}

type committedTxn struct {
	seq    int64
	writes map[string]bool
}

type txnState struct {
	startSeq int64
	reads    map[string]bool
	writes   map[string]int64
}

// New returns an OCC scheduler over the store.
func New(store *storage.Store) *OCC {
	return &OCC{store: store, txns: make(map[int]*txnState)}
}

// Name implements sched.Scheduler.
func (o *OCC) Name() string { return "OCC" }

// Begin implements sched.Scheduler.
func (o *OCC) Begin(txn int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.txns[txn] = &txnState{
		startSeq: o.commitSeq,
		reads:    make(map[string]bool),
		writes:   make(map[string]int64),
	}
}

// state returns txn's live incarnation, or — for a stray operation on a
// transaction that never began or has finished — the plain abort
// sched.Scheduler's contract asks for.
func (o *OCC) state(txn int) (*txnState, error) {
	st := o.txns[txn]
	if st == nil {
		return nil, sched.Abort(txn, 0, "no live incarnation")
	}
	return st, nil
}

// Read implements sched.Scheduler: always succeeds; the item joins the
// read set.
func (o *OCC) Read(txn int, item string) (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	st, err := o.state(txn)
	if err != nil {
		return 0, err
	}
	if v, ok := st.writes[item]; ok {
		return v, nil
	}
	st.reads[item] = true
	return o.store.Get(item), nil
}

// Write implements sched.Scheduler: always succeeds; buffered.
func (o *OCC) Write(txn int, item string, v int64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	st, err := o.state(txn)
	if err != nil {
		return err
	}
	st.writes[item] = v
	return nil
}

// Commit implements sched.Scheduler: serial validation — abort if any
// transaction that committed after our start wrote something we read.
func (o *OCC) Commit(txn int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	st, err := o.state(txn)
	if err != nil {
		return err
	}
	for _, c := range o.committed {
		if c.seq <= st.startSeq {
			continue
		}
		for x := range c.writes {
			if st.reads[x] {
				delete(o.txns, txn)
				return sched.Abort(txn, 0, "read set invalidated by "+x)
			}
		}
	}
	o.commitSeq++
	ws := make(map[string]bool, len(st.writes))
	for x := range st.writes {
		ws[x] = true
	}
	if len(ws) > 0 {
		o.committed = append(o.committed, committedTxn{seq: o.commitSeq, writes: ws})
	}
	o.store.Apply(st.writes)
	delete(o.txns, txn)
	o.gc()
	return nil
}

// gc prunes validation-log entries older than every active transaction.
func (o *OCC) gc() {
	minStart := o.commitSeq
	for _, st := range o.txns {
		if st.startSeq < minStart {
			minStart = st.startSeq
		}
	}
	keep := o.committed[:0]
	for _, c := range o.committed {
		if c.seq > minStart {
			keep = append(keep, c)
		}
	}
	o.committed = keep
}

// Abort implements sched.Scheduler.
func (o *OCC) Abort(txn int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.txns, txn)
	o.gc()
}

// ValidationLogLen returns the current validation-log length (gc tests).
func (o *OCC) ValidationLogLen() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.committed)
}
