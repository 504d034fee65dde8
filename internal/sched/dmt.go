package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/dmt"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/oplog"
	"repro/internal/storage"
)

// DMT adapts a DMT(k) cluster to the runtime Scheduler interface. The
// cluster itself is concurrency-safe (per-object ordered locking), so the
// adapter only guards its own write buffers; data publishes atomically at
// commit like every other scheduler in the suite.
//
// The default (striped) variant holds the item's latch across a read's
// protocol step and store fetch, and the write set's latches across
// commit-time publish, pinning each decision to the data state it was
// made against while disjoint items proceed concurrently. The coarse
// variant instead serializes every operation — protocol and store
// access — under one global mutex; it is the differential reference.
type DMT struct {
	cluster *dmt.Cluster
	store   *storage.Store
	sites   int
	latches *core.LatchTable // nil in the coarse reference variant
	gmu     *sync.Mutex      // non-nil in the coarse reference variant

	mu    sync.Mutex
	txns  map[int]*mtTxn
	steps atomic.Int64

	// trackWindows enables degraded-window accounting and home-site
	// admission on the step path. Only set when the cluster has a
	// transport: fault-free runs skip the per-op SiteUp check entirely.
	trackWindows bool

	// Degraded-mode commit hand-off (SetParking). parkSem bounds how
	// many commits may wait at once; nil means fail fast.
	parking Parking
	parkSem chan struct{}

	// Per-site circuit breaker (SetBreaker). When a site's circuit is
	// open, admitStep fails the attempt fast with ErrUnavailable instead
	// of letting it park or probe a transport that will not answer; the
	// step, probe and commit paths feed the breaker's failure detector.
	breaker *admit.Breaker

	parked      atomic.Int64 // commits that entered the hand-off queue
	healed      atomic.Int64 // parked commits released by a heal/recovery
	expired     atomic.Int64 // parked commits that hit the deadline
	rejected    atomic.Int64 // commits refused because the queue was full
	winAttempts atomic.Int64 // commit attempts made during a degraded window
	winCommits  atomic.Int64 // of those, how many committed
}

// Parking configures degraded-mode commits: instead of failing fast,
// an attempt whose home site is crashed parks in a bounded hand-off
// queue until the site heals or the deadline expires. Parking engages
// at two points: at commit time (everything validated, only the final
// decision pending), and at an attempt's FIRST protocol step (nothing
// validated yet, so resuming after the heal is indistinguishable from
// a fresh attempt). An attempt that loses its home site mid-flight
// still fails fast — its validated steps died with the site's volatile
// state. Parked attempts hold no latches, so reads and writes at
// reachable sites proceed while they wait.
type Parking struct {
	// Capacity bounds concurrently parked commits (backpressure); 0
	// disables parking (fail-fast, the pre-degraded behavior).
	Capacity int
	// Deadline is the maximum wall-clock wait before the parked commit
	// gives up with ErrUnavailable (default 250ms).
	Deadline time.Duration
	// Poll is the base probe interval while parked; each sleep is
	// jittered ±50% from the seeded sequence (default 200µs).
	Poll time.Duration
	// Seed drives the poll jitter.
	Seed int64
}

func (p Parking) withDefaults() Parking {
	if p.Deadline <= 0 {
		p.Deadline = 250 * time.Millisecond
	}
	if p.Poll <= 0 {
		p.Poll = 200 * time.Microsecond
	}
	return p
}

// DegradedStats is a snapshot of the degraded-mode commit counters.
type DegradedStats struct {
	Parked   int64 // commits that entered the hand-off queue
	Healed   int64 // parked commits released by heal/recovery
	Expired  int64 // parked commits that hit the deadline
	Rejected int64 // commits refused by queue backpressure
	// WindowAttempts/WindowCommits measure attempt-level commit
	// availability during degraded windows (a site down or a partition
	// active): an attempt counts when it reaches commit during a window
	// or runs into its down home site at a step, and counts as committed
	// when that same attempt goes on to commit. The ratio is what
	// degraded-mode parking improves over fail-fast — a parked attempt
	// rides out the outage and commits; a failed-fast one is charged as
	// an unavailable attempt.
	WindowAttempts int64
	WindowCommits  int64
}

// Availability returns WindowCommits/WindowAttempts (1 when no commit
// was attempted during a degraded window).
func (s DegradedStats) Availability() float64 {
	if s.WindowAttempts == 0 {
		return 1
	}
	return float64(s.WindowCommits) / float64(s.WindowAttempts)
}

// SetParking enables (or, with Capacity 0, disables) degraded-mode
// commit parking. Call before traffic flows.
func (d *DMT) SetParking(p Parking) {
	d.parking = p.withDefaults()
	if p.Capacity > 0 {
		d.parkSem = make(chan struct{}, p.Capacity)
	} else {
		d.parkSem = nil
	}
}

// SetBreaker installs a per-site circuit breaker in front of every
// protocol step. Call before traffic flows; nil removes it.
func (d *DMT) SetBreaker(b *admit.Breaker) { d.breaker = b }

// Breaker returns the installed circuit breaker (nil when none).
func (d *DMT) Breaker() *admit.Breaker { return d.breaker }

// Degraded returns a snapshot of the degraded-mode commit counters.
func (d *DMT) Degraded() DegradedStats {
	return DegradedStats{
		Parked:         d.parked.Load(),
		Healed:         d.healed.Load(),
		Expired:        d.expired.Load(),
		Rejected:       d.rejected.Load(),
		WindowAttempts: d.winAttempts.Load(),
		WindowCommits:  d.winCommits.Load(),
	}
}

// NewDMT returns a DMT(k) runtime scheduler over the store with the
// striped data path.
func NewDMT(store *storage.Store, opts dmt.Options) *DMT {
	d := newDMT(store, opts)
	d.latches = core.NewLatchTable(engine.DefaultStripes)
	d.latches.BindInterner(store.Interner())
	return d
}

// NewDMTCoarse returns the coarse DMT(k) runtime scheduler: one global
// mutex serializes every operation end to end, store access included.
func NewDMTCoarse(store *storage.Store, opts dmt.Options) *DMT {
	d := newDMT(store, opts)
	d.gmu = &sync.Mutex{}
	return d
}

func newDMT(store *storage.Store, opts dmt.Options) *DMT {
	return &DMT{
		cluster:      dmt.NewCluster(opts),
		store:        store,
		sites:        opts.Sites,
		txns:         make(map[int]*mtTxn),
		trackWindows: opts.Transport != nil,
	}
}

// serialize takes the coarse variant's global mutex; a no-op when
// striped. Returns the unlock.
func (d *DMT) serialize() func() {
	if d.gmu == nil {
		return func() {}
	}
	d.gmu.Lock()
	return d.gmu.Unlock
}

// latch locks the given items' latches; a no-op when coarse. Returns
// the unlock.
func (d *DMT) latch(items ...string) func() {
	if d.latches == nil {
		return func() {}
	}
	return d.latches.Lock(items...)
}

// Name implements Scheduler.
func (d *DMT) Name() string {
	if d.gmu != nil {
		return fmt.Sprintf("DMT/%dsites/coarse", d.sites)
	}
	return fmt.Sprintf("DMT/%dsites", d.sites)
}

// Cluster exposes the underlying cluster (metrics).
func (d *DMT) Cluster() *dmt.Cluster { return d.cluster }

// Begin implements Scheduler.
func (d *DMT) Begin(txn int) {
	d.mu.Lock()
	d.txns[txn] = &mtTxn{writes: make(map[string]int64)}
	d.mu.Unlock()
}

// state returns the live incarnation's buffers, or nil if the
// transaction has no live incarnation (never began, or was aborted by a
// timed-out runtime attempt whose straggler operation arrives late).
// Returning nil instead of panicking keeps a degraded run alive: the
// caller answers such stray operations with a plain abort.
func (d *DMT) state(txn int) *mtTxn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.txns[txn]
}

// Read implements Scheduler. Striped: the item's latch is held from
// the protocol step through the store fetch, so the value read is the
// committed state the decision was made against.
func (d *DMT) Read(txn int, item string) (int64, error) {
	defer d.serialize()()
	st := d.state(txn)
	if st == nil {
		return 0, Abort(txn, 0, "no live incarnation")
	}
	d.mu.Lock()
	if v, ok := st.writes[item]; ok {
		d.mu.Unlock()
		return v, nil
	}
	d.mu.Unlock()
	if err := d.admitStep(txn, st); err != nil {
		return 0, err
	}
	defer d.latch(item)()
	dec := d.cluster.Step(oplog.R(txn, item))
	d.observeStep(txn, dec)
	if dec.Verdict == core.Unavailable {
		return 0, Unavailable(txn, dec.Site, "read unreachable")
	}
	if dec.Verdict == core.Reject {
		d.mu.Lock()
		st.blocker = dec.Blocker
		_, live := d.txns[dec.Blocker]
		d.mu.Unlock()
		return 0, abortBy(txn, dec.Blocker, live, "read rejected")
	}
	d.mu.Lock()
	st.stepped = true
	d.mu.Unlock()
	// No dirty-read window: the cluster publishes WT(x) at write time but
	// the data publishes at commit; conservatively abort reads over items
	// with a live writer (cheap check via the adapter's live set).
	if w := d.cluster.WTHolder(item); w != 0 && w != txn {
		d.mu.Lock()
		_, live := d.txns[w]
		d.mu.Unlock()
		if live {
			return 0, Abort(txn, w, "read over uncommitted writer")
		}
	}
	d.maybeGC()
	return d.store.Get(item), nil
}

// Write implements Scheduler: validated immediately at the cluster,
// buffered for atomic publication at commit.
func (d *DMT) Write(txn int, item string, v int64) error {
	defer d.serialize()()
	st := d.state(txn)
	if st == nil {
		return Abort(txn, 0, "no live incarnation")
	}
	if err := d.admitStep(txn, st); err != nil {
		return err
	}
	// No write-write inversion: with deferred writes, two live
	// transactions writing the same item would both hold buffered
	// values, and whichever COMMITS last would publish last — if that is
	// the older-timestamped writer, the store ends up with the stale
	// value and the committed history has a cycle. Mirror the read
	// path's guard: abort rather than step over a live uncommitted
	// writer. The item's latch is held from the check through the
	// protocol step so the previous writer cannot publish (nor a new
	// writer slip in) between the two.
	unlock := d.latch(item)
	if w := d.cluster.WTHolder(item); w != 0 && w != txn {
		d.mu.Lock()
		_, live := d.txns[w]
		if live {
			st.blocker = w
		}
		d.mu.Unlock()
		if live {
			unlock()
			return Abort(txn, w, "write over uncommitted writer")
		}
	}
	dec := d.cluster.Step(oplog.W(txn, item))
	unlock()
	d.observeStep(txn, dec)
	if dec.Verdict == core.Unavailable {
		return Unavailable(txn, dec.Site, "write unreachable")
	}
	if dec.Verdict == core.Reject {
		d.mu.Lock()
		st.blocker = dec.Blocker
		_, live := d.txns[dec.Blocker]
		d.mu.Unlock()
		return abortBy(txn, dec.Blocker, live, "write rejected")
	}
	d.mu.Lock()
	st.writes[item] = v
	st.stepped = true
	d.mu.Unlock()
	return nil
}

// admitStep is the degraded-mode gate in front of every protocol step:
// when the transaction's home site is down, the attempt is counted
// against the degraded window once, and — if parking is enabled and
// nothing has been validated in this incarnation yet — parked until
// the site heals. A home that stays down past the deadline, a full
// queue, or a mid-flight loss (some step already validated against
// state the crash destroyed) all fail fast with ErrUnavailable, which
// the runtime's unavailability budget absorbs. No-op without a
// transport.
func (d *DMT) admitStep(txn int, st *mtTxn) error {
	if !d.trackWindows && d.breaker == nil {
		return nil
	}
	home := d.cluster.TxnSite(txn)
	if d.trackWindows && !d.cluster.SiteUp(home) {
		d.mu.Lock()
		counted, stepped := st.winCounted, st.stepped
		st.winCounted = true
		d.mu.Unlock()
		if !counted {
			d.winAttempts.Add(1)
		}
		// Open circuit: fail fast before parking — the whole point of
		// the breaker is not to burn a parked attempt's deadline against
		// a site the detector already holds Down. The half-open probe
		// that Allow lets through still takes the normal path below.
		if d.breaker != nil && !d.breaker.Allow(home) {
			return Unavailable(txn, home, "site breaker open")
		}
		if d.parkSem == nil || stepped {
			return Unavailable(txn, home, "home site down")
		}
		return d.parkWait(txn, home)
	}
	// Site looks up locally but the circuit may still be open (cooldown
	// running after a heal): fail fast until a probe closes it.
	if d.breaker != nil && !d.breaker.Allow(home) {
		return Unavailable(txn, home, "site breaker open")
	}
	return nil
}

// observeStep feeds the breaker from one protocol step's outcome: an
// Unavailable verdict is a failed contact with the unreachable site,
// any decided verdict (Accept or Reject — the protocol answered) is a
// successful contact with the transaction's acting home site.
func (d *DMT) observeStep(txn int, dec core.Decision) {
	if d.breaker == nil {
		return
	}
	if dec.Verdict == core.Unavailable {
		d.breaker.Observe(dec.Site, false)
	} else {
		d.breaker.Observe(d.cluster.TxnSite(txn), true)
	}
}

// Commit implements Scheduler. A transaction whose home site crashed
// mid-flight cannot commit immediately: without parking the error is
// retryable and the runtime re-runs the transaction once the site
// recovers (fail-fast); with parking (SetParking) the commit waits in a
// bounded hand-off queue for the site to heal, turning the crash window
// from guaranteed aborts into mostly-delayed commits. Parking happens
// BEFORE the coarse variant's global mutex is taken, so waiting commits
// never block reads and writes at reachable sites.
func (d *DMT) Commit(txn int) error {
	home := d.cluster.TxnSite(txn)
	var track bool
	if d.trackWindows {
		d.mu.Lock()
		if st := d.txns[txn]; st != nil && st.winCounted {
			track = true // attempt already counted at a parked/refused step
		}
		d.mu.Unlock()
		if !track && d.cluster.InDegradedWindow() {
			track = true
			d.winAttempts.Add(1)
		}
	}
	if !d.cluster.SiteUp(home) {
		if err := d.parkCommit(txn, home); err != nil {
			return err
		}
	}
	defer d.serialize()()
	d.mu.Lock()
	st := d.txns[txn]
	d.mu.Unlock()
	if st != nil {
		// Striped: hold the write set's latches across the publish and
		// the protocol commit, so a concurrent reader of a written item
		// sees either the pre-commit state with the pre-commit ordering
		// or the post-commit state with the post-commit ordering. The
		// live-set entry is removed only after the publish: the
		// uncommitted-writer guards key off it, and deleting it first
		// would open a window where a guard sees "not live" while the
		// buffered writes are still unpublished.
		items := make([]string, 0, len(st.writes))
		for x := range st.writes {
			items = append(items, x)
		}
		unlock := d.latch(items...)
		d.store.ApplyTxn(txn, st.writes)
		d.cluster.Commit(txn)
		d.mu.Lock()
		delete(d.txns, txn)
		d.mu.Unlock()
		unlock()
	} else {
		d.cluster.Commit(txn)
	}
	if d.breaker != nil {
		d.breaker.Observe(home, true)
	}
	if track {
		d.winCommits.Add(1)
	}
	d.maybeGC()
	return nil
}

// parkCommit parks a commit whose home site is down (fail-fast without
// a queue — the pre-degraded behavior).
func (d *DMT) parkCommit(txn, home int) error {
	if d.parkSem == nil {
		return Unavailable(txn, home, "commit on crashed home site")
	}
	return d.parkWait(txn, home)
}

// parkWait is the degraded-mode hand-off: wait (bounded in space by
// the queue capacity and in time by the deadline) for the home site to
// come back. Each poll probes the site THROUGH the transport, advancing
// the fault injector's logical clock — so scheduled heal and recovery
// events keep firing even when every worker is parked here, and the
// cluster cannot livelock waiting for a clock that only traffic drives.
func (d *DMT) parkWait(txn, home int) error {
	sem := d.parkSem
	select {
	case sem <- struct{}{}:
	default:
		d.rejected.Add(1)
		return Unavailable(txn, home, "parking queue full")
	}
	defer func() { <-sem }()
	d.parked.Add(1)
	deadline := time.Now().Add(d.parking.Deadline)
	for tick := int64(1); ; tick++ {
		up := d.cluster.ProbeSite(home) == nil && d.cluster.SiteUp(home)
		if d.breaker != nil {
			d.breaker.Observe(home, up)
		}
		if up {
			d.healed.Add(1)
			return nil
		}
		if time.Now().After(deadline) {
			d.expired.Add(1)
			return Unavailable(txn, home, "parked attempt deadline expired")
		}
		base := d.parking.Poll
		j := time.Duration(fault.Mix(d.parking.Seed^int64(txn), tick) % uint64(base))
		time.Sleep(base/2 + j)
	}
}

// Abort implements Scheduler.
func (d *DMT) Abort(txn int) {
	defer d.serialize()()
	d.mu.Lock()
	st := d.txns[txn]
	blocker := 0
	if st != nil {
		blocker = st.blocker
	}
	delete(d.txns, txn)
	d.mu.Unlock()
	d.cluster.Abort(txn, blocker)
}

// maybeGC sweeps finished vectors every 256 scheduler steps.
func (d *DMT) maybeGC() {
	if d.steps.Add(1)%256 == 0 {
		d.cluster.GC()
	}
}
