// Package dmt implements DMT(k), the decentralized concurrency controller
// of Section V-B: MT(k) run across multiple sites.
//
// Every transaction and every data item has a home site. The timestamp
// vector of a transaction is stored at its home site; the RT(x)/WT(x)
// indices live with the item. A local scheduler processing an operation
// locks the (at most four) objects it touches — the item's index entry and
// the vectors of T_i, RT(x) and WT(x) — in a predefined linear order, so
// no deadlock can occur and no global lock synchronization is needed. The
// k-th vector elements are made globally unique without coordination by
// concatenating the allocating site's number as low-order bits
// (value = counter·S + site); local counters only advance, and an
// allocation is always bumped past the element it must outrank, which is
// the correctness-critical part of the paper's "synchronize the counters
// periodically" remark. SyncCounters implements the periodic
// synchronization itself (fairness under unbalanced load).
//
// Cross-site object accesses are tallied as messages (one request plus one
// reply), giving the message-overhead figures of the DMT(k) discussion.
//
// # Failure model
//
// Every object access is routed through an injectable fault.Transport
// hook (the message counter is one observer of that hook). Sites fail by
// stopping: a crash loses the site's volatile item index and — under
// counter drift — its local counters; the transaction vectors are
// treated as stable storage. Operations that need a crashed or
// unreachable site fail fast with an Unavailable verdict (surfaced as
// sched.ErrUnavailable by the runtime adapter) instead of proceeding on
// stale state. Recovery rebuilds the site's item index by replaying the
// cluster's accepted-operation journal and re-validates the site's
// ucnt/lcnt counters against the surviving sites and every live
// k-th-column element the site ever allocated, hardening the paper's
// "synchronize the counters periodically" remark into an actual
// recovery path.
package dmt

import (
	"fmt"
	"hash/fnv"
	"path"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/oplog"
	"repro/internal/wal"
)

// Options configures a DMT(k) cluster.
type Options struct {
	// K is the timestamp vector size.
	K int
	// Sites is the number of sites (>= 1).
	Sites int
	// HomeOfTxn maps a transaction to its home site (default: txn mod
	// Sites). The virtual transaction 0 lives at site 0.
	HomeOfTxn func(txn int) int
	// HomeOfItem maps an item to its home site (default: FNV hash).
	HomeOfItem func(item string) int
	// Transport, when non-nil, carries every object access; faults it
	// injects make operations fail fast with an Unavailable verdict. If
	// the transport also implements SetHooks(fault.Hooks) — as
	// *fault.Injector does — the cluster wires its crash/recovery
	// handlers so scheduled site events drive the degraded-mode state
	// machine, and its heal handler re-synchronizes the counters so the
	// skew a partition built up is bounded again. Nil models a perfect
	// network.
	Transport fault.Transport
	// Durable, when non-nil, gives every site a durable counter-lease
	// sidecar (wal.CounterLog): allocations are covered by a persisted
	// write-ahead lease, and a recovering site reseeds its ucnt/lcnt
	// from its OWN log — no-reissue no longer depends on reaching the
	// survivors, which is what makes recovery partition-tolerant.
	Durable *DurableOptions
	// Health tunes the failure detector; the zero value uses defaults.
	Health fault.HealthOptions
}

// DurableOptions configures the per-site counter sidecars.
type DurableOptions struct {
	// FS is the sidecar filesystem (wal.OSFS for real disks, wal.MemFS
	// for crash-model tests and simulations).
	FS wal.FS
	// Dir is the root directory; site s logs under Dir/site<s>.
	Dir string
	// LeaseBatch is how many allocations one persisted lease covers
	// (amortizes the fsync; default 64).
	LeaseBatch int64
}

// sidecarDir names one site's durable directory.
func (o *DurableOptions) sidecarDir(sidx int) string {
	return path.Join(o.Dir, fmt.Sprintf("site%d", sidx))
}

func (o *DurableOptions) leaseBatch() int64 {
	if o.LeaseBatch < 1 {
		return 64
	}
	return o.LeaseBatch
}

// itemEntry is the per-item index record stored at the item's home site.
type itemEntry struct {
	rt, wt int
}

// vecEntry is a transaction's vector plus its lock.
type vecEntry struct {
	mu  sync.Mutex
	vec *core.Vector
}

// site holds the locally-stored state of one site. The site's local
// ucnt/lcnt counters live in the cluster's engine.SiteCounters slot.
type site struct {
	mu    sync.Mutex
	vecs  map[int]*vecEntry
	items map[string]*itemEntry
	locks map[string]*sync.Mutex // item index-entry locks
	done  map[int]bool           // finished transactions awaiting GC
	down  bool                   // fail-stopped (degraded mode)

	// inc is the incarnation lock: operations acting as this site hold
	// it shared across their probe-allocate-publish span, and CrashSite
	// holds it exclusively while it wipes the incarnation. Without it a
	// step that passed its availability probes could allocate from the
	// site's counter slot AFTER a drift crash reset it, re-issuing a
	// consumed counter value — an interleaving a real fail-stop crash
	// makes impossible (the crash kills in-flight work at the site).
	inc sync.RWMutex
}

// journalRec is one accepted item-index update, the cluster's stable
// redo record: recovery replays these to rebuild a crashed site's index.
type journalRec struct {
	site int
	item string
	kind oplog.Kind
	txn  int
}

// Cluster is a DMT(k) deployment of several cooperating local schedulers.
// Step may be called concurrently from any number of goroutines.
type Cluster struct {
	opts      Options
	sites     []*site
	counters  *engine.SiteCounters // per-site (counter, site-id) allocation
	transport fault.Transport

	messages    atomic.Int64 // cross-site request/reply messages
	lockRetries atomic.Int64 // optimistic re-lock rounds
	unavailable atomic.Int64 // operations failed fast on a down site
	t0          *vecEntry

	health *fault.Health // per-site failure detector, fed by access outcomes

	smu      sync.Mutex        // guards sidecars (handles swap on crash/recover)
	sidecars []*wal.CounterLog // per-site durable counter leases (Durable only)

	jmu     sync.Mutex
	journal []journalRec

	rmu         sync.Mutex
	recoveredAt map[int]time.Time     // site -> recovery completion, latency pending
	recoveryLat map[int]time.Duration // site -> recovery-to-first-commit latency
}

// NewCluster returns an initialized DMT(k) cluster.
func NewCluster(opts Options) *Cluster {
	if opts.K < 1 {
		panic("dmt: Options.K must be >= 1")
	}
	if opts.Sites < 1 {
		panic("dmt: Options.Sites must be >= 1")
	}
	c := &Cluster{
		opts:        opts,
		counters:    engine.NewSiteCounters(opts.Sites),
		transport:   opts.Transport,
		health:      fault.NewHealth(opts.Sites, opts.Health),
		recoveredAt: make(map[int]time.Time),
		recoveryLat: make(map[int]time.Duration),
	}
	for s := 0; s < opts.Sites; s++ {
		c.sites = append(c.sites, &site{
			vecs:  make(map[int]*vecEntry),
			items: make(map[string]*itemEntry),
			locks: make(map[string]*sync.Mutex),
		})
	}
	t0 := core.NewVector(opts.K)
	c.t0 = &vecEntry{vec: t0}
	c.sites[0].vecs[0] = c.t0
	// TS(0) = <0,*,...,*>: seed via a table trick — element 1 must be 0.
	c.t0.vec = core.VectorOf(seedT0(opts.K)...)
	if opts.Durable != nil {
		c.sidecars = make([]*wal.CounterLog, opts.Sites)
		for s := 0; s < opts.Sites; s++ {
			log, err := wal.OpenCounterLog(opts.Durable.FS, opts.Durable.sidecarDir(s))
			if err != nil {
				panic(fmt.Sprintf("dmt: opening counter sidecar for site %d: %v", s, err))
			}
			c.sidecars[s] = log
			u, l := log.Watermarks()
			c.counters.SetDurable(s, u, l, opts.Durable.leaseBatch(), log.Extend)
		}
	}
	if h, ok := opts.Transport.(interface{ SetHooks(fault.Hooks) }); ok {
		h.SetHooks(fault.Hooks{
			OnCrash:   c.CrashSite,
			OnRecover: c.RecoverSite,
			// A heal re-synchronizes the reachable sites' counters, bounding
			// the skew the partition built up (the paper's "synchronize the
			// counters periodically" at the moment it matters most).
			OnHeal: func(groups [][]int) { c.SyncCounters() },
		})
	}
	return c
}

// Close releases the durable sidecar handles (no-op without Durable).
func (c *Cluster) Close() error {
	c.smu.Lock()
	defer c.smu.Unlock()
	var first error
	for _, log := range c.sidecars {
		if log != nil {
			if err := log.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

func seedT0(k int) []core.Elem {
	elems := make([]core.Elem, k)
	elems[0] = core.Int(0)
	return elems
}

// homeOfTxn resolves the home site of a transaction.
func (c *Cluster) homeOfTxn(txn int) int {
	if txn == 0 {
		return 0
	}
	if c.opts.HomeOfTxn != nil {
		return c.opts.HomeOfTxn(txn)
	}
	return txn % c.opts.Sites
}

// homeOfItem resolves the home site of an item.
func (c *Cluster) homeOfItem(x string) int {
	if c.opts.HomeOfItem != nil {
		return c.opts.HomeOfItem(x)
	}
	h := fnv.New32a()
	h.Write([]byte(x))
	return int(h.Sum32()) % c.opts.Sites
}

// access routes one object access (an object homed at objHome touched
// from the acting site) through the transport hook. The message tally is
// one observer of the hook: a delivered cross-site access costs one
// request plus one reply. A transport fault (site down, message lost)
// returns the error and the access must not touch state.
func (c *Cluster) access(acting, objHome int) error {
	if c.transport != nil {
		if err := c.transport.Send(acting, objHome); err != nil {
			// Feed the failure detector: the failing site (down or behind a
			// cut) accrues suspicion, so best-effort maintenance skips it.
			if s := fault.SiteOf(err); s >= 0 {
				c.health.Observe(s, false)
			}
			return err
		}
	} else if c.siteDown(objHome) {
		c.health.Observe(objHome, false)
		return &fault.Error{Site: objHome, Err: fault.ErrSiteDown}
	}
	c.health.Observe(objHome, true)
	if acting != objHome {
		c.messages.Add(2) // request + reply
	}
	return nil
}

// Health exposes the cluster's failure detector (reports, tests).
func (c *Cluster) Health() *fault.Health { return c.health }

// ProbeSite sends one probe to the site through the transport — it
// advances the injector's logical clock, so pollers (parked commits,
// counter sync) drive scheduled heal/recovery events forward even when
// every worker is waiting. Returns nil if the site answered.
func (c *Cluster) ProbeSite(sidx int) error {
	if sidx < 0 || sidx >= len(c.sites) {
		return &fault.Error{Site: sidx, Err: fault.ErrSiteDown}
	}
	if err := c.access(sidx, sidx); err != nil {
		return err
	}
	if c.siteDown(sidx) {
		c.health.Observe(sidx, false)
		return &fault.Error{Site: sidx, Err: fault.ErrSiteDown}
	}
	return nil
}

// InDegradedWindow reports whether the cluster is currently degraded:
// any site down, or any network partition active. Availability
// experiments measure commit success against attempts made while this
// holds.
func (c *Cluster) InDegradedWindow() bool {
	for i := range c.sites {
		if !c.SiteUp(i) {
			return true
		}
	}
	if p, ok := c.transport.(interface{ Partitioned() bool }); ok && p.Partitioned() {
		return true
	}
	return false
}

// siteDown reads the cluster-local fail-stop flag.
func (c *Cluster) siteDown(sidx int) bool {
	s := c.sites[sidx]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// SiteUp reports whether a site is operational, consulting both the
// transport (partitions, scheduled events) and the cluster's own
// fail-stop flag (manual CrashSite).
func (c *Cluster) SiteUp(sidx int) bool {
	if sidx < 0 || sidx >= len(c.sites) {
		return false
	}
	if c.transport != nil && !c.transport.SiteUp(sidx) {
		return false
	}
	return !c.siteDown(sidx)
}

// TxnSite resolves the home site of a transaction (exported for runtime
// adapters that must check availability at commit).
func (c *Cluster) TxnSite(txn int) int { return c.homeOfTxn(txn) }

// CrashSite fail-stops a site: its volatile item index is lost (the
// journal is the stable copy) and, with drift, its local counters reset
// as if the site restarted from zeroed volatile state. Operations
// needing the site fail fast with Unavailable until RecoverSite. Wired
// as the transport's OnCrash hook; may also be called directly when no
// transport is configured.
func (c *Cluster) CrashSite(sidx int, drift bool) {
	if sidx < 0 || sidx >= len(c.sites) {
		return
	}
	s := c.sites[sidx]
	// The incarnation write lock waits out every in-flight step acting
	// as this site (each holds the read side across its allocation), so
	// the counter reset below can never interleave with an allocation
	// from the dying incarnation — see site.inc.
	s.inc.Lock()
	defer s.inc.Unlock()
	s.mu.Lock()
	s.down = true
	// Fail-stop: the in-memory index is gone. Entry pointers held by
	// in-flight operations detach harmlessly — every accepted update is
	// also in the journal, which recovery replays.
	s.items = make(map[string]*itemEntry)
	s.mu.Unlock()
	if drift {
		c.counters.Reset(sidx)
	} else {
		// The lease hook's file handle dies with the site; the persisted
		// lease survives on disk and RecoverSite reopens it.
		c.counters.DetachDurable(sidx)
	}
	c.smu.Lock()
	if c.sidecars != nil && c.sidecars[sidx] != nil {
		_ = c.sidecars[sidx].Close()
		c.sidecars[sidx] = nil
	}
	c.smu.Unlock()
	c.health.Observe(sidx, false)
}

// RecoverSite brings a crashed site back: it rebuilds the item index by
// replaying the journal and re-validates the site's counters against the
// surviving sites and against every live k-th-column element this site
// ever allocated, so post-recovery allocations can never collide with a
// pre-crash allocation (the correctness half of the paper's "synchronize
// the counters periodically" remark). Wired as the transport's OnRecover
// hook.
func (c *Cluster) RecoverSite(sidx int) {
	if sidx < 0 || sidx >= len(c.sites) {
		return
	}
	// 1. Replay the journal records of items homed here, in accept order.
	c.jmu.Lock()
	var recs []journalRec
	for _, r := range c.journal {
		if r.site == sidx {
			recs = append(recs, r)
		}
	}
	c.jmu.Unlock()
	s := c.sites[sidx]
	s.mu.Lock()
	s.items = make(map[string]*itemEntry)
	for _, r := range recs {
		e := s.items[r.item]
		if e == nil {
			e = &itemEntry{}
			s.items[r.item] = e
			if s.locks[r.item] == nil {
				s.locks[r.item] = &sync.Mutex{}
			}
		}
		if r.kind == oplog.Read {
			e.rt = r.txn
		} else {
			e.wt = r.txn
		}
	}
	s.mu.Unlock()
	// 2. Reseed from the site's OWN durable lease first: every counter the
	// dead incarnation could have consumed lies below the lease it
	// persisted before consuming, so this step alone guarantees the site
	// re-issues nothing — even if every survivor is unreachable (the
	// partition-tolerant half of recovery).
	if c.opts.Durable != nil {
		if log, err := wal.OpenCounterLog(c.opts.Durable.FS, c.opts.Durable.sidecarDir(sidx)); err == nil {
			c.smu.Lock()
			c.sidecars[sidx] = log
			c.smu.Unlock()
			u, l := log.Watermarks()
			c.counters.SetDurable(sidx, u, l, c.opts.Durable.leaseBatch(), log.Extend)
		}
		// On open failure the site proceeds volatile; the survivor raise
		// below still applies and DurableErr stays clear (no lease).
	}
	// 3. Best-effort re-validation against the population: at least the
	// surviving maxima, and strictly past every live element this site
	// allocated. Under a partition this may see a stale picture — safe,
	// because the lease reseed above already rules out re-issue.
	hiU, hiL := c.counters.MaxExcept(sidx)
	aU, aL := c.allocatedBySite(sidx)
	c.counters.RaiseSite(sidx, max(hiU, aU+1), max(hiL, aL+1))
	s.mu.Lock()
	s.down = false
	s.mu.Unlock()
	// 4. Stamp the recovery for latency reporting.
	c.rmu.Lock()
	c.recoveredAt[sidx] = time.Now()
	c.rmu.Unlock()
	c.health.Observe(sidx, true)
}

// allocatedBySite scans the k-th column of every live vector and returns
// the highest upper and lower counter values decoded from elements this
// site allocated (value = counter·S + site, negated for lower).
func (c *Cluster) allocatedBySite(sidx int) (maxU, maxL int64) {
	n := int64(c.opts.Sites)
	for _, s := range c.sites {
		s.mu.Lock()
		entries := make([]*vecEntry, 0, len(s.vecs))
		for _, e := range s.vecs {
			entries = append(entries, e)
		}
		s.mu.Unlock()
		for _, e := range entries {
			e.mu.Lock()
			last := e.vec.Elem(e.vec.K())
			e.mu.Unlock()
			if !last.Defined {
				continue
			}
			v := last.V
			if v >= 0 {
				if v%n == int64(sidx) && v/n > maxU {
					maxU = v / n
				}
			} else {
				if (-v)%n == int64(sidx) && (-v)/n > maxL {
					maxL = (-v) / n
				}
			}
		}
	}
	return maxU, maxL
}

// logIndexUpdate appends one accepted rt/wt update to the stable journal.
// Called while the item's lock is held, so per-item record order is the
// true accept order.
func (c *Cluster) logIndexUpdate(sidx int, item string, kind oplog.Kind, txn int) {
	c.jmu.Lock()
	c.journal = append(c.journal, journalRec{site: sidx, item: item, kind: kind, txn: txn})
	c.jmu.Unlock()
}

// noteCommit resolves a pending recovery-latency measurement when the
// first post-recovery transaction homed at the site commits.
func (c *Cluster) noteCommit(sidx int) {
	c.rmu.Lock()
	if at, ok := c.recoveredAt[sidx]; ok {
		c.recoveryLat[sidx] = time.Since(at)
		delete(c.recoveredAt, sidx)
	}
	c.rmu.Unlock()
}

// RecoveryLatencies returns, per recovered site, the wall time from
// recovery completion to the first commit of a transaction homed there.
func (c *Cluster) RecoveryLatencies() map[int]time.Duration {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	out := make(map[int]time.Duration, len(c.recoveryLat))
	for s, d := range c.recoveryLat {
		out[s] = d
	}
	return out
}

// UnavailableCount returns how many operations failed fast because a
// site they needed was down or unreachable.
func (c *Cluster) UnavailableCount() int64 { return c.unavailable.Load() }

// vecOf fetches (or creates) the vector entry of txn at its home site.
func (c *Cluster) vecOf(txn int) *vecEntry {
	s := c.sites[c.homeOfTxn(txn)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.vecs[txn]; ok {
		return e
	}
	e := &vecEntry{vec: core.NewVector(c.opts.K)}
	s.vecs[txn] = e
	return e
}

// itemOf fetches (or creates) the index entry and its lock for item x.
func (c *Cluster) itemOf(x string) (*itemEntry, *sync.Mutex) {
	s := c.sites[c.homeOfItem(x)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.items[x]; !ok {
		s.items[x] = &itemEntry{}
		s.locks[x] = &sync.Mutex{}
	}
	return s.items[x], s.locks[x]
}

// Messages returns the number of cross-site messages exchanged so far.
func (c *Cluster) Messages() int64 { return c.messages.Load() }

// LockRetries returns how many optimistic locking rounds had to restart
// because RT(x)/WT(x) changed while the sorted lock set was acquired.
func (c *Cluster) LockRetries() int64 { return c.lockRetries.Load() }

// Vector returns a copy of TS(i).
func (c *Cluster) Vector(i int) *core.Vector {
	e := c.vecOf(i)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.vec.Clone()
}

// SyncCounters aligns every reachable site's upper and lower counter to
// their maximum — the paper's periodic synchronization for fairness
// under unbalanced load. Both counters only ever advance, so syncing to
// the maximum can never cause a site to re-issue a counter value it (or
// any other site) already consumed; syncing the lower counter *down*
// would do exactly that and break the global uniqueness of the k-th
// column.
//
// The skip set is the failure detector's: each site is probed through
// the transport (one message, advancing the injector clock) and the
// outcome feeds Health; sites that are down, partitioned away, or
// already suspected are neither read nor written, so synchronization
// degrades gracefully instead of blocking on unreachable sites. Crashed
// sites re-validate in RecoverSite; partitioned sites catch up at the
// heal (the OnHeal hook calls this again).
func (c *Cluster) SyncCounters() {
	skip := make([]bool, len(c.sites))
	for i := range c.sites {
		reachable := c.access(0, i) == nil && !c.siteDown(i)
		skip[i] = !reachable || c.health.Skip(i)
	}
	c.counters.Sync(func(i int) bool { return skip[i] })
}

// Counters returns the cluster-wide counter consumption watermarks:
// the maximum lower and upper counter over all sites. Both site
// counters only ever advance (CrashSite resets a site, but its old
// values are re-validated from the survivors by RecoverSite), so a
// durability log can treat the pair as monotone watermarks: restarting
// every site at or above them guarantees no consumed k-th-column value
// is re-issued.
func (c *Cluster) Counters() (lo, hi int64) {
	return c.counters.Watermarks()
}

// RaiseCounters lifts every site's counters to at least (lo, hi) —
// the recovery-side half of the Counters watermark contract. Raise,
// never assign: a site may already be past the watermark.
func (c *Cluster) RaiseCounters(lo, hi int64) {
	c.counters.Raise(lo, hi)
}

// CounterSkew returns max-min of the sites' upper counters, for the
// fairness experiments.
func (c *Cluster) CounterSkew() int64 {
	return c.counters.Skew()
}

// lockKey gives every lockable object a position in the predefined linear
// order: vectors sort before item entries, then by id.
func lockKeyVec(txn int) string      { return fmt.Sprintf("v:%012d", txn) }
func lockKeyItem(item string) string { return "x:" + item }

// lockedObjects is the sorted lock set held while one operation is
// scheduled.
type lockedObjects struct {
	keys   []string
	unlock []func()
}

func (lo *lockedObjects) release() {
	// Unlock in reverse acquisition order.
	for i := len(lo.unlock) - 1; i >= 0; i-- {
		lo.unlock[i]()
	}
}

// acquire locks the item entry and the vectors of the given transactions
// in the predefined linear order.
func (c *Cluster) acquire(x string, txns []int) *lockedObjects {
	type obj struct {
		key  string
		lock func() func()
	}
	var objs []obj
	_, itemMu := c.itemOf(x)
	objs = append(objs, obj{lockKeyItem(x), func() func() {
		itemMu.Lock()
		return itemMu.Unlock
	}})
	seen := map[int]bool{}
	for _, t := range txns {
		if seen[t] {
			continue
		}
		seen[t] = true
		e := c.vecOf(t)
		objs = append(objs, obj{lockKeyVec(t), func() func() {
			e.mu.Lock()
			return e.mu.Unlock
		}})
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].key < objs[j].key })
	lo := &lockedObjects{}
	for _, o := range objs {
		lo.keys = append(lo.keys, o.key)
		lo.unlock = append(lo.unlock, o.lock())
	}
	return lo
}

// set encodes or validates TS(j) < TS(i) under the already-held locks:
// the engine kernel's Set, with site-tagged counters allocated by the
// acting site's SiteCounters slot.
func (c *Cluster) set(acting, j, i int, vj, vi *core.Vector) bool {
	return engine.Dep{
		J: j, I: i, VJ: vj, VI: vi, K: c.opts.K,
		Alloc: c.counters.For(acting),
		Sink:  engine.VectorSink{VJ: vj, VI: vi},
	}.Encode()
}

// Step schedules one operation. Safe for concurrent use; each item of a
// multi-item operation is scheduled independently under its own lock set.
// An Unavailable verdict means a site the operation needed is crashed or
// unreachable: nothing was decided or mutated, and the operation may be
// retried once the site recovers.
func (c *Cluster) Step(op oplog.Op) core.Decision {
	for _, x := range op.Items {
		v, blocker, site := c.StepItem(op.Txn, op.Kind, x)
		switch v {
		case core.Unavailable:
			return core.Decision{Op: op, Verdict: core.Unavailable, Site: site, Item: x}
		case core.Reject:
			return core.Decision{Op: op, Verdict: core.Reject, Blocker: blocker, Item: x}
		}
	}
	return core.Decision{Op: op, Verdict: core.Accept}
}

// StepItem is Step for one (transaction, item) pair — the form a
// runtime lifecycle steps through, one item under one latch. It performs
// the optimistic lock-validate-decide round and returns the verdict, the
// blocker on Reject, and the unreachable site on Unavailable. Every
// transport check runs before the first mutation, so a fault leaves no
// partial state behind.
func (c *Cluster) StepItem(txn int, kind oplog.Kind, x string) (core.Verdict, int, int) {
	acting := c.homeOfTxn(txn)
	c.markLive(txn)
	for {
		// Fail fast: a crashed site schedules nothing. The check is a
		// probe through the transport, so it advances the injector's
		// logical clock — even a fully-degraded cluster (every live
		// transaction homed at a crashed site) makes progress toward its
		// scheduled recovery instead of livelocking.
		if err := c.access(acting, acting); err != nil {
			c.unavailable.Add(1)
			return core.Unavailable, 0, fault.SiteOf(err)
		}
		entry, itemMu := c.itemOf(x)
		// Snapshot the index under its own lock only, then acquire the
		// full sorted lock set and validate the snapshot.
		itemMu.Lock()
		rt, wt := entry.rt, entry.wt
		itemMu.Unlock()
		locks := c.acquire(x, []int{txn, rt, wt})
		if entry.rt != rt || entry.wt != wt {
			// The index moved while we were acquiring: retry with the new
			// holders (optimistic ordered locking).
			locks.release()
			c.lockRetries.Add(1)
			continue
		}
		// Route every object access through the transport before any
		// mutation: item entry + each distinct vector. A fault releases
		// the locks and reports the unreachable site.
		fail := func(err error) (core.Verdict, int, int) {
			locks.release()
			c.unavailable.Add(1)
			return core.Unavailable, 0, fault.SiteOf(err)
		}
		if err := c.access(acting, c.homeOfItem(x)); err != nil {
			return fail(err)
		}
		seen := map[int]bool{}
		for _, t := range []int{txn, rt, wt} {
			if !seen[t] {
				seen[t] = true
				if err := c.access(acting, c.homeOfTxn(t)); err != nil {
					return fail(err)
				}
			}
		}
		// Incarnation check: hold the acting site's incarnation lock
		// across the decide-allocate-publish span. CrashSite performs its
		// whole wipe (down flag, index, counter reset) under the write
		// side, so either the crash already happened — the down re-check
		// fails and nothing is decided — or it waits until this step's
		// allocation is published. Without this a drift crash could reset
		// the counter slot between the probes above and the allocation
		// inside set(), re-issuing a consumed counter value. Taken after
		// the transport probes: a probe may itself fire the scheduled
		// crash of this site, whose handler takes the write side.
		inc := &c.sites[acting].inc
		inc.RLock()
		if c.siteDown(acting) {
			inc.RUnlock()
			locks.release()
			c.unavailable.Add(1)
			return core.Unavailable, 0, acting
		}
		vi := c.vecOf(txn).vec
		vrt, vwt := c.vecOf(rt).vec, c.vecOf(wt).vec
		j, vj := rt, vrt
		if rt != wt && vrt.Less(vwt) {
			j, vj = wt, vwt
		}
		var verdict core.Verdict
		var blocker int
		if c.set(acting, j, txn, vj, vi) {
			if kind == oplog.Read {
				entry.rt = txn
			} else {
				entry.wt = txn
			}
			c.logIndexUpdate(c.homeOfItem(x), x, kind, txn)
			verdict = core.Accept
		} else if kind == oplog.Read && j == rt && vwt.Less(vi) {
			verdict = core.Accept // line-9 slot-in, RT unchanged
		} else {
			verdict, blocker = core.Reject, j
		}
		inc.RUnlock()
		locks.release()
		return verdict, blocker, 0
	}
}

// AcceptLog runs a complete log sequentially, returning (true, -1) on
// full acceptance or (false, i) at the first operation not accepted.
func (c *Cluster) AcceptLog(l *oplog.Log) (bool, int) {
	for idx, op := range l.Ops {
		if d := c.Step(op); d.Verdict != core.Accept {
			return false, idx
		}
	}
	return true, -1
}

// Abort discards transaction txn's incarnation. With a non-zero blocker
// (the Blocker of the rejecting Decision) the vector is flushed and
// reseeded to the blocker's first element + 1 under its lock — the
// distributed form of the Section III-D-4 starvation fix. The reseeded
// vector dominates the old one, so established relations pointing at the
// transaction survive.
func (c *Cluster) Abort(txn, blocker int) {
	if txn == 0 || blocker == 0 {
		c.markDone(txn)
		return
	}
	eb := c.vecOf(blocker)
	et := c.vecOf(txn)
	// Lock the two vector objects in the predefined order.
	first, second := eb, et
	if lockKeyVec(txn) < lockKeyVec(blocker) {
		first, second = et, eb
	}
	first.mu.Lock()
	second.mu.Lock()
	if b := eb.vec.Elem(1); b.Defined {
		seed := b.V + 1
		if c.opts.K == 1 {
			// Column 1 is the distinct counter column: allocate the seed
			// through the site counters so it stays globally unique. Hold
			// the home site's incarnation read lock across the allocation
			// so a concurrent drift crash cannot reset the slot mid-alloc
			// (same discipline as StepItem). If the home site is already
			// down the reseed is skipped entirely: allocating from a reset
			// slot could re-issue a consumed value, and the starvation fix
			// can wait for a post-recovery abort — the retry fails fast at
			// its first step until then anyway.
			hidx := c.homeOfTxn(txn)
			home := c.sites[hidx]
			home.inc.RLock()
			if c.siteDown(hidx) {
				home.inc.RUnlock()
				second.mu.Unlock()
				first.mu.Unlock()
				return
			}
			seed = c.counters.For(hidx).AllocUpper(b.V)
			home.inc.RUnlock()
		}
		et.vec.Reset()
		et.vec.SetElem(1, seed)
	}
	second.mu.Unlock()
	first.mu.Unlock()
}

// Commit marks the transaction finished; its vector is reclaimed by GC
// once no item index references it.
func (c *Cluster) Commit(txn int) {
	c.markDone(txn)
	if txn != 0 {
		c.noteCommit(c.homeOfTxn(txn))
	}
}

// done transactions per site, guarded by the site mutex of the txn's home.
func (c *Cluster) markDone(txn int) {
	if txn == 0 {
		return
	}
	s := c.sites[c.homeOfTxn(txn)]
	s.mu.Lock()
	if s.done == nil {
		s.done = make(map[int]bool)
	}
	s.done[txn] = true
	s.mu.Unlock()
}

// markLive clears txn's finished mark: a transaction issuing operations
// is live — the runtime re-runs one that aborted without a blocker
// under the same id — and GC must not take the vector it is building.
func (c *Cluster) markLive(txn int) {
	s := c.sites[c.homeOfTxn(txn)]
	s.mu.Lock()
	delete(s.done, txn)
	s.mu.Unlock()
}

// GC reclaims vectors of finished transactions that are no longer the
// most recent read or write timestamp of any item (implementation issue
// (b), distributed). It returns the number of vectors dropped. Callers
// run it periodically, concurrently with traffic; it holds one lock at
// a time.
//
// While a site is down its in-memory index is gone, but recovery will
// rebuild it from the journal — so the sweep conservatively treats every
// transaction in the down site's journal records as referenced, keeping
// the vectors the rebuilt index will point at.
func (c *Cluster) GC() int { return c.gcSweep(c.gcScan()) }

// gcScan returns, per site, the transactions that had finished when the
// scan began, and the set of transactions some item index names. The
// candidates are taken BEFORE any index entry is read: a candidate made
// its last index update before it finished, so the reads that follow see
// every slot it still occupies, while a transaction that steps and
// finishes during the scan is not a candidate and waits for the next
// sweep. Index entries are collected under their site's lock but read
// under their own item lock, the lock StepItem writes them under.
func (c *Cluster) gcScan() (candidates [][]int, referenced map[int]bool) {
	type indexed struct {
		e  *itemEntry
		mu *sync.Mutex
	}
	var entries []indexed
	candidates = make([][]int, len(c.sites))
	downSites := map[int]bool{}
	for idx, s := range c.sites {
		s.mu.Lock()
		for txn := range s.done {
			candidates[idx] = append(candidates[idx], txn)
		}
		if s.down {
			downSites[idx] = true
		}
		for x, e := range s.items {
			entries = append(entries, indexed{e, s.locks[x]})
		}
		s.mu.Unlock()
	}
	referenced = map[int]bool{0: true}
	for _, it := range entries {
		it.mu.Lock()
		referenced[it.e.rt] = true
		referenced[it.e.wt] = true
		it.mu.Unlock()
	}
	if len(downSites) > 0 {
		c.jmu.Lock()
		for _, r := range c.journal {
			if downSites[r.site] {
				referenced[r.txn] = true
			}
		}
		c.jmu.Unlock()
	}
	return candidates, referenced
}

// gcSweep drops the vectors of the scan's unreferenced candidates.
func (c *Cluster) gcSweep(candidates [][]int, referenced map[int]bool) int {
	dropped := 0
	for idx, s := range c.sites {
		s.mu.Lock()
		for _, txn := range candidates[idx] {
			if s.done[txn] && !referenced[txn] {
				delete(s.vecs, txn)
				delete(s.done, txn)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

// LiveVectors returns the total number of vectors held across all sites.
func (c *Cluster) LiveVectors() int {
	n := 0
	for _, s := range c.sites {
		s.mu.Lock()
		n += len(s.vecs)
		s.mu.Unlock()
	}
	return n
}

// WTHolder returns the transaction currently recorded as WT(x), 0 if
// none. Runtime adapters use it to close the dirty-read window of
// immediate-mode scheduling.
func (c *Cluster) WTHolder(x string) int {
	entry, mu := c.itemOf(x)
	mu.Lock()
	defer mu.Unlock()
	return entry.wt
}
