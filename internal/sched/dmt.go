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
	"repro/internal/intern"
	"repro/internal/oplog"
	"repro/internal/storage"
)

// dmtKernel is dmt.Cluster as a kernel: the paper's Section V protocol
// is one more Set(j, i) encoder behind ordered object locks, safe for
// concurrent use, so both lifecycles take it as it stands. Names are
// DMT's message payload — an item's home site hashes its name, the
// cluster stays by-name inside — so the shim resolves the interned id
// back to its name for each step. What is DMT-specific about a single
// protocol step lives here, beneath the lifecycle: the step's outcome
// feeds the circuit breaker, an Unavailable verdict carries the
// unreachable site where a Reject carries the blocker, and finished
// vectors are swept every 256 steps.
type dmtKernel struct {
	cluster *dmt.Cluster
	names   *intern.Table  // the store's
	breaker *admit.Breaker // nil when none (DMT.SetBreaker)
	steps   atomic.Int64
}

func newDMTKernel(store *storage.Store, opts dmt.Options) *dmtKernel {
	return &dmtKernel{cluster: dmt.NewCluster(opts), names: store.Interner()}
}

// StepReadID implements kernel.
func (k *dmtKernel) StepReadID(txn int, id int32) (core.Verdict, int) {
	return k.step(txn, oplog.Read, id)
}

// StepWriteID implements kernel.
func (k *dmtKernel) StepWriteID(txn int, id int32) (core.Verdict, int) {
	return k.step(txn, oplog.Write, id)
}

// step runs one protocol step and feeds the breaker from its outcome:
// an Unavailable verdict is a failed contact with the unreachable site,
// any decided verdict (Accept or Reject — the protocol answered) is a
// successful contact with the transaction's acting home site.
func (k *dmtKernel) step(txn int, kind oplog.Kind, id int32) (core.Verdict, int) {
	v, blocker, site := k.cluster.StepItem(txn, kind, k.names.Name(id))
	k.tick()
	if v == core.Unavailable {
		if k.breaker != nil {
			k.breaker.Observe(site, false)
		}
		return v, site
	}
	if k.breaker != nil {
		k.breaker.Observe(k.cluster.TxnSite(txn), true)
	}
	return v, blocker
}

// tick counts one kernel call and sweeps finished vectors on every
// 256th.
func (k *dmtKernel) tick() {
	if k.steps.Add(1)%256 == 0 {
		k.cluster.GC()
	}
}

// Commit implements kernel.
func (k *dmtKernel) Commit(txn int) {
	k.cluster.Commit(txn)
	if k.breaker != nil {
		k.breaker.Observe(k.cluster.TxnSite(txn), true)
	}
	k.tick()
}

// Abort implements kernel.
func (k *dmtKernel) Abort(txn, blocker int) { k.cluster.Abort(txn, blocker) }

// Watermarks implements kernel. The cluster takes its own per-site
// counter locks, so the journal hook may call this freely.
func (k *dmtKernel) Watermarks() (lo, hi int64) { return k.cluster.Counters() }

// RaiseWatermarks implements kernel.
func (k *dmtKernel) RaiseWatermarks(lo, hi int64) { k.cluster.RaiseCounters(lo, hi) }

// ReadPendingWriterID implements pendingWriters with DMT's conservative
// rule: the cluster publishes WT(x) at write time but the data publishes
// at commit, so any other live transaction named by WT(x) is a conflict.
// (For a read that was just accepted the rule is exact: acceptance
// ordered the reader after WT(x).)
func (k *dmtKernel) ReadPendingWriterID(txn int, id int32, live func(int) bool) (int, bool) {
	return k.WritePendingWriterID(txn, id, live)
}

// WritePendingWriterID implements pendingWriters.
func (k *dmtKernel) WritePendingWriterID(txn int, id int32, live func(int) bool) (int, bool) {
	w := k.cluster.WTHolder(k.names.Name(id))
	if w == 0 || w == txn || !live(w) {
		return 0, false
	}
	return w, true
}

func dmtFamily(sites int, variant string) family {
	return family{name: fmt.Sprintf("DMT/%dsites%s", sites, variant)}
}

// DMT is DMT(k) at runtime (immediate mode): the shared adapter over a
// dmtKernel, behind the degraded-mode gate. Everything the gate does —
// counting an attempt against a degraded window, refusing it on an open
// circuit, parking it until its home site heals — happens before the
// lifecycle is entered, so a parked attempt holds no item latch and no
// transaction-state lock, and reads and writes at reachable sites
// proceed while it waits.
type DMT struct {
	*adapter
	k    *dmtKernel
	opts dmt.Options

	// trackWindows enables degraded-window accounting and home-site
	// admission on the step path. Only set when the cluster has a
	// transport: fault-free runs skip the per-op SiteUp check entirely.
	trackWindows bool

	// Degraded-mode commit hand-off (SetParking). parkSem bounds how
	// many commits may wait at once; nil means fail fast.
	parking Parking
	parkSem chan struct{}

	// attempts holds the gate's bits per live incarnation, kept only
	// while the gate can act on them (gated); mu is a leaf.
	mu       sync.Mutex
	attempts map[int]uint8

	parked      atomic.Int64 // commits that entered the hand-off queue
	healed      atomic.Int64 // parked commits released by a heal/recovery
	expired     atomic.Int64 // parked commits that hit the deadline
	rejected    atomic.Int64 // commits refused because the queue was full
	winAttempts atomic.Int64 // commit attempts made during a degraded window
	winCommits  atomic.Int64 // of those, how many committed
}

// What the gate remembers about one live incarnation.
const (
	// attemptStepped: some operation of this incarnation was accepted. A
	// parked attempt may only resume if nothing was validated against
	// state a crash has since destroyed.
	attemptStepped uint8 = 1 << iota
	// attemptCounted: already charged to the degraded window.
	attemptCounted
)

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
	d.parkSem = nil
	if p.Capacity > 0 {
		d.parkSem = make(chan struct{}, p.Capacity)
	}
}

// SetBreaker installs a per-site circuit breaker: while a site's
// circuit is open the gate fails an attempt homed there fast with
// ErrUnavailable instead of letting it park or probe a transport that
// will not answer; the kernel's steps and commits and the parked probes
// feed its failure detector. Call before traffic flows; nil removes it.
func (d *DMT) SetBreaker(b *admit.Breaker) { d.k.breaker = b }

// Breaker returns the installed circuit breaker (nil when none).
func (d *DMT) Breaker() *admit.Breaker { return d.k.breaker }

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

// NewDMT returns a DMT(k) runtime scheduler over the store, on the
// production path with a latch table of its own.
func NewDMT(store *storage.Store, opts dmt.Options) *DMT {
	k := newDMTKernel(store, opts)
	return &DMT{
		adapter:      newAdapter(store, dmtFamily(opts.Sites, ""), k, core.NewLatchTable(engine.DefaultStripes)),
		k:            k,
		opts:         opts,
		trackWindows: opts.Transport != nil,
		attempts:     make(map[int]uint8),
	}
}

// reference implements referencer. The reference runs a cluster of its
// own with the same options — a fault transport hooks into one cluster
// only, so take the reference of a fault-free configuration.
func (d *DMT) reference(store *storage.Store) *MT {
	return newReference(store, dmtFamily(d.opts.Sites, "/coarse"), newDMTKernel(store, d.opts))
}

// Cluster exposes the underlying cluster (metrics, fault injection).
func (d *DMT) Cluster() *dmt.Cluster { return d.k.cluster }

// gated reports whether the gate keeps per-incarnation bits: only with
// a transport or a breaker is there anything for it to act on.
func (d *DMT) gated() bool { return d.trackWindows || d.k.breaker != nil }

// mark sets bits on txn's live incarnation and returns the bits it had;
// live is false when the gate knows no incarnation of txn (it knows
// none at all while it is not gated).
func (d *DMT) mark(txn int, bits uint8) (had uint8, live bool) {
	if !d.gated() {
		return 0, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if had, live = d.attempts[txn]; live && had|bits != had {
		d.attempts[txn] = had | bits
	}
	return had, live
}

// forget drops the gate's bits of a finished incarnation.
func (d *DMT) forget(txn int) {
	if d.gated() {
		d.mu.Lock()
		delete(d.attempts, txn)
		d.mu.Unlock()
	}
}

// Begin implements Scheduler.
func (d *DMT) Begin(txn int) {
	if d.gated() {
		d.mu.Lock()
		d.attempts[txn] = 0
		d.mu.Unlock()
	}
	d.adapter.Begin(txn)
}

// Read implements Scheduler: the gate, then the lifecycle.
func (d *DMT) Read(txn int, item string) (int64, error) {
	if err := d.admitStep(txn); err != nil {
		return 0, err
	}
	v, err := d.adapter.Read(txn, item)
	if err == nil {
		d.mark(txn, attemptStepped)
	}
	return v, err
}

// Write implements Scheduler: the gate, then the lifecycle.
func (d *DMT) Write(txn int, item string, v int64) error {
	if err := d.admitStep(txn); err != nil {
		return err
	}
	err := d.adapter.Write(txn, item, v)
	if err == nil {
		d.mark(txn, attemptStepped)
	}
	return err
}

// admitStep is the degraded-mode gate in front of every operation: when
// the transaction's home site is down, the attempt is counted against
// the degraded window once, and — if parking is enabled and nothing has
// been validated in this incarnation yet — parked until the site heals.
// A home that stays down past the deadline, a full queue, or a
// mid-flight loss (some step already validated against state the crash
// destroyed) all fail fast with ErrUnavailable, which the runtime's
// unavailability budget absorbs. An operation on a transaction with no
// live incarnation passes: the lifecycle answers it.
func (d *DMT) admitStep(txn int) error {
	if !d.gated() {
		return nil
	}
	home := d.k.cluster.TxnSite(txn)
	var counted uint8
	if d.trackWindows && !d.k.cluster.SiteUp(home) {
		counted = attemptCounted
	}
	had, live := d.mark(txn, counted)
	if !live {
		return nil
	}
	if counted&^had != 0 {
		d.winAttempts.Add(1)
	}
	// Open circuit: fail fast before parking — the whole point of the
	// breaker is not to burn a parked attempt's deadline against a site
	// the detector already holds Down — and keep failing fast after a
	// heal until the cooldown's half-open probe closes it. The probe
	// that Allow lets through takes the normal path below.
	if b := d.k.breaker; b != nil && !b.Allow(home) {
		return Unavailable(txn, home, "site breaker open")
	}
	if counted == 0 {
		return nil
	}
	if d.parkSem == nil || had&attemptStepped != 0 {
		return Unavailable(txn, home, "home site down")
	}
	return d.parkWait(txn, home)
}

// Commit implements Scheduler. A transaction whose home site crashed
// mid-flight cannot commit immediately: without parking the error is
// retryable and the runtime re-runs the transaction once the site
// recovers (fail-fast); with parking (SetParking) the commit waits in a
// bounded hand-off queue for the site to heal, turning the crash window
// from guaranteed aborts into mostly-delayed commits. Parking happens
// BEFORE the lifecycle takes any lock, so waiting commits never block
// reads and writes at reachable sites.
func (d *DMT) Commit(txn int) error {
	home := d.k.cluster.TxnSite(txn)
	var track bool
	if d.trackWindows {
		had, live := d.mark(txn, 0)
		track = had&attemptCounted != 0 // counted at a parked/refused step
		if live && !track && d.k.cluster.InDegradedWindow() {
			track = true
			d.winAttempts.Add(1)
		}
	}
	if !d.k.cluster.SiteUp(home) {
		if d.parkSem == nil {
			return Unavailable(txn, home, "commit on crashed home site")
		}
		if err := d.parkWait(txn, home); err != nil {
			return err
		}
	}
	if err := d.adapter.Commit(txn); err != nil {
		return err
	}
	if track {
		d.winCommits.Add(1)
	}
	d.forget(txn)
	return nil
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
		up := d.k.cluster.ProbeSite(home) == nil && d.k.cluster.SiteUp(home)
		if d.k.breaker != nil {
			d.k.breaker.Observe(home, up)
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
	d.adapter.Abort(txn)
	d.forget(txn)
}
