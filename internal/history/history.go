// Package history provides an execution recorder for runtime schedulers:
// it captures the *effect order* of a concurrent execution as a log in
// the paper's model — reads at the moment they are served, writes at the
// moment their transaction commits (when their effect becomes visible
// under the Section VI-C-2 deferred-write discipline every scheduler in
// this repository follows) — and can then be checked against the offline
// class recognizers. A correct single-version scheduler must always
// produce a D-serializable committed history; the integration tests use
// this to validate every protocol under real goroutine concurrency.
//
// The recorder serializes all scheduler calls through its own mutex so
// the recorded order is exactly the order the wrapped scheduler saw.
// Wrap only non-blocking schedulers: a scheduler that parks inside
// Read/Write (the 2PL lock manager) would deadlock under the recorder's
// mutex.
package history

import (
	"slices"
	"sync"

	"repro/internal/oplog"
	"repro/internal/sched"
)

// Recorder wraps a scheduler and records the committed effect order.
type Recorder struct {
	mu    sync.Mutex
	inner sched.Scheduler
	ops   []oplog.Op
	// writesOf accumulates the items written by each live transaction so
	// the write effects can be appended at commit.
	writesOf  map[int][]string
	committed map[int]bool
}

// Wrap returns a recording wrapper around inner.
func Wrap(inner sched.Scheduler) *Recorder {
	return &Recorder{
		inner:     inner,
		writesOf:  make(map[int][]string),
		committed: make(map[int]bool),
	}
}

// Name implements sched.Scheduler.
func (r *Recorder) Name() string { return r.inner.Name() + "+rec" }

// Unwrap exposes the wrapped scheduler so harnesses can reach optional
// interfaces (e.g. degraded-mode stats) through the recorder.
func (r *Recorder) Unwrap() sched.Scheduler { return r.inner }

// Begin implements sched.Scheduler.
func (r *Recorder) Begin(txn int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inner.Begin(txn)
	// A restarted incarnation's previous recorded reads are void: drop
	// any ops of txn recorded since its last commit (it never committed).
	r.dropUncommitted(txn)
	r.writesOf[txn] = nil
}

// dropUncommitted removes recorded reads of an aborted incarnation.
func (r *Recorder) dropUncommitted(txn int) {
	if r.committed[txn] {
		return
	}
	keep := r.ops[:0]
	for _, op := range r.ops {
		if op.Txn != txn {
			keep = append(keep, op)
		}
	}
	r.ops = keep
}

// Read implements sched.Scheduler. A read of an item the transaction
// has itself written is served from its own buffer: it touches no
// shared state, so it is not an effect and is not recorded (recording
// it would invent a dependency on every writer that commits before the
// transaction's own write takes effect).
func (r *Recorder) Read(txn int, item string) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, err := r.inner.Read(txn, item)
	if err == nil && !slices.Contains(r.writesOf[txn], item) {
		r.ops = append(r.ops, oplog.R(txn, item))
	}
	return v, err
}

// Write implements sched.Scheduler: the effect is recorded at commit.
func (r *Recorder) Write(txn int, item string, v int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.inner.Write(txn, item, v); err != nil {
		return err
	}
	r.writesOf[txn] = append(r.writesOf[txn], item)
	return nil
}

// Commit implements sched.Scheduler.
func (r *Recorder) Commit(txn int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.inner.Commit(txn); err != nil {
		r.dropUncommitted(txn)
		delete(r.writesOf, txn)
		return err
	}
	for _, item := range r.writesOf[txn] {
		r.ops = append(r.ops, oplog.W(txn, item))
	}
	delete(r.writesOf, txn)
	r.committed[txn] = true
	return nil
}

// Abort implements sched.Scheduler.
func (r *Recorder) Abort(txn int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inner.Abort(txn)
	r.dropUncommitted(txn)
	delete(r.writesOf, txn)
}

// CommittedLog returns the recorded effect order restricted to committed
// transactions.
func (r *Recorder) CommittedLog() *oplog.Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ops []oplog.Op
	for _, op := range r.ops {
		if r.committed[op.Txn] {
			ops = append(ops, op)
		}
	}
	return oplog.NewLog(ops...)
}
