package admit

import (
	"sync"

	"repro/internal/metrics"
)

// AgingOptions tunes the starvation-freedom machinery.
type AgingOptions struct {
	// ElderAfter is the restart count at which a transaction becomes an
	// elder: the admission barrier closes to new first attempts, and the
	// crisis gate parks every other transaction's retries, until it
	// finishes (default 8). Its own retries keep their scale: the
	// express lane's short sleep while it is the oldest live
	// transaction (ExpressScale), the yield scale otherwise.
	ElderAfter int
	// YieldScale is the backoff multiplier a transaction pays when its
	// blocker is older than it is (default 4). Asymmetric backoff is the
	// aging tie-break: the young yield wall-clock to the old, so age —
	// not scheduling luck — decides who wins a repeated conflict.
	YieldScale float64
	// ExpressScale is the backoff multiplier of the oldest live
	// transaction (default 0.25). Small but deliberately nonzero: with a
	// literally-zero backoff the lane holder hot-loops — every abort
	// reseeds it past its blocker, which guarantees the next attempt
	// still orders after that blocker's in-flight write, so it can burn
	// its whole attempt budget racing a single bounded think window. A
	// short jittered sleep keeps the lane hot while ensuring it
	// eventually outwaits any bounded in-flight attempt.
	ExpressScale float64
	// Disabled turns the whole component off: OnAbort always returns 1,
	// the barrier never closes. Used by A/B experiments.
	Disabled bool
	// UnsafeZeroExpress reintroduces the PR 7 express-lane livelock for
	// the schedule explorer's seeded-bug tests: the oldest live
	// transaction's backoff scale becomes literally zero, so it
	// hot-loops its attempt budget against the reseed-past-the-blocker
	// rule. Never set outside tests.
	UnsafeZeroExpress bool
}

func (o AgingOptions) withDefaults() AgingOptions {
	if o.ElderAfter <= 0 {
		o.ElderAfter = 8
	}
	if o.YieldScale <= 0 {
		o.YieldScale = 4
	}
	if o.ExpressScale <= 0 {
		o.ExpressScale = 0.25
	}
	if o.UnsafeZeroExpress {
		o.ExpressScale = 0
	}
	return o
}

// Aging carries each transaction's age across restarts and turns it into
// scheduling priority. Age is the admission sequence number (stable
// across every incarnation of the id, assigned at first admission), so
// "older" means "arrived earlier", exactly the bounded-timestamp notion
// of precedence. Two mechanisms feed on it:
//
//   - Oldest-wins backoff: the oldest live transaction retries almost
//     immediately (ExpressScale) — it holds the sole express lane —
//     while one aborted by an older blocker sleeps YieldScale times
//     longer and everyone else sleeps normally. Age imposes a total
//     priority order, so a restart storm drains oldest-first instead of
//     everyone fighting everyone.
//   - Elder barrier: past ElderAfter restarts a transaction is promoted
//     to elder, and while any elder is live the admission barrier holds
//     back new first attempts, so the population the oldest must beat
//     only shrinks. Combined with the engine's reseed-past-the-blocker
//     rule its next conflicts are against a bounded, draining set — it
//     commits in bounded work, then the next-oldest inherits the lane.
//   - Crisis gate (RetryGate): while any elder is live, retries of every
//     transaction but the oldest park before launching, so the oldest
//     runs alone and its commit is certain, not merely likely. This is
//     the hard guarantee the backoff shaping alone cannot give.
type Aging struct {
	opts AgingOptions

	mu      sync.Mutex
	nextSeq int64
	txns    map[int]*ageEntry
	elderN  int           // live elders
	quiet   chan struct{} // closed while elderN == 0 (barrier open)
	turn    chan struct{} // closed and remade whenever the drain order may change

	elders       metrics.Counter // promotions
	barrierWaits metrics.Counter // admissions that waited on the barrier
	gateWaits    metrics.Counter // retries parked by the crisis gate
}

type ageEntry struct {
	seq      int64
	restarts int
	elder    bool
}

// NewAging returns an aging table with the given options.
func NewAging(o AgingOptions) *Aging {
	quiet := make(chan struct{})
	close(quiet)
	return &Aging{
		opts:  o.withDefaults(),
		txns:  make(map[int]*ageEntry),
		quiet: quiet,
		turn:  make(chan struct{}),
	}
}

// WaitBarrier blocks while the elder barrier is closed (some elder is
// fighting for its commit). Returns ctx.Err() if ctx expires first.
func (a *Aging) WaitBarrier(ctx Waiter) error {
	if a.opts.Disabled {
		return nil
	}
	for {
		a.mu.Lock()
		ch := a.quiet
		a.mu.Unlock()
		select {
		case <-ch:
			return nil
		default:
		}
		a.barrierWaits.Inc()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Admitted registers a first attempt, assigning the transaction its age.
// Re-admitting a live id keeps its original age (the runtime admits an
// id once per transaction, but idempotence is cheap insurance).
func (a *Aging) Admitted(id int) {
	a.mu.Lock()
	if _, ok := a.txns[id]; !ok {
		a.nextSeq++
		a.txns[id] = &ageEntry{seq: a.nextSeq}
	}
	a.mu.Unlock()
}

// OnAbort records one restart of id caused by blocker and returns the
// backoff scale for the retry: ExpressScale when id is the oldest live
// transaction (retry almost immediately — it must win next), YieldScale
// when the blocker is older than id, 1 otherwise. Giving the express
// lane to exactly one transaction at a time — the oldest — is what
// makes the guarantee composable: if every struggling transaction
// retried eagerly they would only fight each other, but a total
// priority order drains the storm oldest-first, each commit promoting
// the next-oldest.
func (a *Aging) OnAbort(id, blocker int) float64 {
	if a.opts.Disabled {
		return 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.txns[id]
	if e == nil {
		return 1
	}
	e.restarts++
	if !e.elder && e.restarts >= a.opts.ElderAfter {
		e.elder = true
		a.elders.Inc()
		a.elderN++
		if a.elderN == 1 {
			a.quiet = make(chan struct{}) // close the barrier
		}
	}
	oldest := true
	for _, o := range a.txns {
		if o.seq < e.seq {
			oldest = false
			break
		}
	}
	if oldest {
		return a.opts.ExpressScale
	}
	// Soft quiesce: while any elder is live, every non-oldest retry
	// yields. The aggressors that keep beating a starving transaction
	// are the young, low-restart ones retrying at full speed — widening
	// only the elders' sleeps would leave the express lane contested by
	// exactly the transactions that least need to run. Outside a
	// quiesce, a transaction yields only to an older blocker.
	if a.elderN > 0 {
		return a.opts.YieldScale
	}
	if b := a.txns[blocker]; b != nil && b.seq < e.seq {
		return a.opts.YieldScale
	}
	return 1
}

// RetryGate parks a retry while the crisis gate is down: whenever an
// elder is live, only the oldest live transaction may launch its next
// attempt; everyone else waits here — burning no attempt budget and
// generating no conflicts — until the lane holder finishes and the next
// oldest inherits. Backoff scaling alone cannot guarantee the drain: a
// sleeping yielder still wakes into a live attempt that can beat the
// oldest in the scheduler's races, so a long-enough unlucky streak
// starves it anyway. Serializing retries during a crisis removes the
// races outright — the oldest runs alone, so its commit is certain —
// and the storm drains in age order, one certain commit at a time.
// Returns ctx.Err() if ctx expires while parked.
func (a *Aging) RetryGate(ctx Waiter, id int) error {
	if a.opts.Disabled {
		return nil
	}
	waited := false
	for {
		a.mu.Lock()
		e := a.txns[id]
		proceed := e == nil || a.elderN == 0
		if !proceed {
			proceed = true
			for _, o := range a.txns {
				if o.seq < e.seq {
					proceed = false
					break
				}
			}
		}
		ch := a.turn
		a.mu.Unlock()
		if proceed {
			return nil
		}
		if !waited {
			waited = true
			a.gateWaits.Inc()
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Restarts returns the restart count recorded for id (0 if unknown).
func (a *Aging) Restarts(id int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e := a.txns[id]; e != nil {
		return e.restarts
	}
	return 0
}

// Done removes the transaction, reopening the barrier when the last
// elder finishes and waking the crisis gate (the drain order changed:
// the next-oldest may now hold the lane).
func (a *Aging) Done(id int) {
	a.mu.Lock()
	if e := a.txns[id]; e != nil {
		if e.elder {
			a.elderN--
			if a.elderN == 0 {
				close(a.quiet) // reopen the barrier
			}
		}
		delete(a.txns, id)
		close(a.turn)
		a.turn = make(chan struct{})
	}
	a.mu.Unlock()
}
