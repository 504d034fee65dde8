// Package sched defines the runtime concurrency-control interface shared
// by every protocol implementation (MT(k), MT(k⁺), MT(k1,k2), DMT(k) and
// the baselines 2PL, TO, OCC, SGT and timestamp intervals), plus the
// MT-family adapters themselves.
//
// All runtime schedulers manage data as well as ordering: Read returns
// committed values, Write buffers the new value, and Commit validates any
// deferred work and atomically publishes the write set (the paper's
// Section VI-C-2 rollback scheme — no dirty data is ever visible, so an
// abort never cascades).
package sched

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrAbort is returned by Read, Write or Commit when the transaction must
// abort and may be retried by the caller.
var ErrAbort = errors.New("sched: transaction must abort")

// AbortError wraps ErrAbort with diagnostic context.
//
// Abort and the engine adapters draw it from a pool, so a rejection
// allocates nothing. txn.Runtime, the one consumer that reads a
// rejection and drops it, hands it back with ReleaseAbortError once it
// has read Blocker and BlockerFinished. Nothing else releases an
// AbortError, and a released one must not be kept or read again: the
// next rejection reuses it. Every other caller simply drops it. One
// built by hand is never pooled, so releasing it does nothing.
type AbortError struct {
	Txn     int
	Blocker int
	Reason  string
	// BlockerFinished reports the blocker's state at rejection time: true
	// means Blocker names a transaction that had already committed or
	// aborted when the operation was rejected, so nothing the caller could
	// wait for will change the outcome — the transaction runtime retries
	// such an abort at once instead of backing off. The zero value means
	// "in flight, or not known" and keeps the jittered wait. Only a
	// scheduler that can answer from a live-set it already keeps (the
	// engine adapters of this package) sets it; every other scheduler,
	// and every abort that names no blocker, leaves it false. It rides in
	// the error, not in an optional scheduler interface, so a decorator
	// around a Scheduler cannot hide it.
	BlockerFinished bool
	// pooled marks an error drawn from abortErrors and not yet released.
	pooled bool
}

// Error implements error.
func (e *AbortError) Error() string {
	return fmt.Sprintf("sched: txn %d aborted (%s, blocker %d)", e.Txn, e.Reason, e.Blocker)
}

// Unwrap makes errors.Is(err, ErrAbort) true.
func (e *AbortError) Unwrap() error { return ErrAbort }

// Abort builds an *AbortError whose blocker is in flight or of unknown
// state (BlockerFinished false).
func Abort(txn, blocker int, reason string) error {
	return pooledAbort(AbortError{Txn: txn, Blocker: blocker, Reason: reason})
}

// abortBy builds the *AbortError of a rejection against blocker, whose
// liveness the adapter read from its live-set under the lock that
// guards it. Blocker 0 is the virtual initial transaction: it names
// nobody, so its state stays unknown.
func abortBy(txn, blocker int, live bool, reason string) error {
	return pooledAbort(AbortError{Txn: txn, Blocker: blocker, Reason: reason, BlockerFinished: blocker != 0 && !live})
}

var abortErrors = sync.Pool{New: func() any { return new(AbortError) }}

func pooledAbort(v AbortError) *AbortError {
	e := abortErrors.Get().(*AbortError)
	*e = v
	e.pooled = true
	return e
}

// ReleaseAbortError returns a rejection its reader is done with to the
// pool Abort draws from. Only txn.Runtime calls it (see AbortError).
func ReleaseAbortError(e *AbortError) {
	if e.pooled {
		e.pooled = false
		abortErrors.Put(e)
	}
}

// ErrUnavailable is returned by distributed schedulers when a site the
// operation needs is crashed, partitioned or lost the message (degraded
// mode). It is NOT an ErrAbort: the transaction did not lose a conflict
// and no ordering was established against it; the operation simply could
// not be performed right now. Callers retry it under a separate budget
// with backoff instead of treating it as a protocol abort.
var ErrUnavailable = errors.New("sched: site unavailable")

// UnavailableError wraps ErrUnavailable with the failing site.
type UnavailableError struct {
	Txn    int
	Site   int // unreachable site (-1 if unknown)
	Reason string
}

// Error implements error.
func (e *UnavailableError) Error() string {
	return fmt.Sprintf("sched: txn %d unavailable (%s, site %d)", e.Txn, e.Reason, e.Site)
}

// Unwrap makes errors.Is(err, ErrUnavailable) true.
func (e *UnavailableError) Unwrap() error { return ErrUnavailable }

// Unavailable builds an *UnavailableError.
func Unavailable(txn, site int, reason string) error {
	return &UnavailableError{Txn: txn, Site: site, Reason: reason}
}

// ErrDeadlineExceeded is returned by the transaction runtime when a
// per-transaction deadline expires before the transaction commits or
// exhausts its retry budgets. Like ErrUnavailable it is NOT an ErrAbort:
// no conflict was lost — the caller simply ran out of time, typically
// while blocked in a backoff sleep, a latch wait or an unavailability
// retry, all of which the deadline cancels.
var ErrDeadlineExceeded = errors.New("sched: transaction deadline exceeded")

// DeadlineError wraps ErrDeadlineExceeded with diagnostic context.
type DeadlineError struct {
	Txn     int
	Elapsed time.Duration // wall time from first attempt to expiry
	Stage   string        // where the deadline fired ("backoff", "attempt", ...)
}

// Error implements error.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("sched: txn %d deadline exceeded after %v (%s)", e.Txn, e.Elapsed, e.Stage)
}

// Unwrap makes errors.Is(err, ErrDeadlineExceeded) true.
func (e *DeadlineError) Unwrap() error { return ErrDeadlineExceeded }

// DeadlineExceeded builds a *DeadlineError.
func DeadlineExceeded(txn int, elapsed time.Duration, stage string) error {
	return &DeadlineError{Txn: txn, Elapsed: elapsed, Stage: stage}
}

// Scheduler is a runtime concurrency controller bound to a store.
// Transaction ids must be unique among concurrently live transactions; a
// retried transaction reuses its id (so protocols like MT(k) with the
// starvation fix can privilege the restarted incarnation).
//
// Implementations may block inside Read/Write (lock-based protocols) or
// fail fast with an error wrapping ErrAbort (timestamp-based protocols).
//
// Stray attempts: an attempt txn.Runtime abandons on a timeout or a
// deadline leaves a goroutine behind that keeps calling, so a scheduler
// sees Read, Write and Commit for a transaction that never began, was
// already aborted or committed, or was re-begun meanwhile. No such call
// may panic. With no live incarnation of txn, Read, Write and Commit
// return a plain *AbortError — Blocker 0, BlockerFinished false — and
// change nothing; Abort stays idempotent. TestStrayAttemptContract
// holds every implementation to this.
type Scheduler interface {
	// Name identifies the protocol in reports, e.g. "MT(3)".
	Name() string
	// Begin opens (or reopens, after an abort) the transaction.
	Begin(txn int)
	// Read returns the committed value of item visible to txn.
	Read(txn int, item string) (int64, error)
	// Write schedules the value to be written by txn at commit.
	Write(txn int, item string, v int64) error
	// Commit validates and atomically publishes txn's writes.
	Commit(txn int) error
	// Abort discards txn (idempotent; safe after a failed Commit).
	Abort(txn int)
}
