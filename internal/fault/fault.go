// Package fault is the deterministic fault-injection subsystem for the
// distributed protocol DMT(k). It models the failure modes the paper's
// Section V-B silently assumes away: lost and delayed cross-site
// messages, fail-stop site crashes with recovery, and crash-induced
// counter drift (a crashed site restarting with stale or zeroed local
// counters, the hazard behind the paper's "synchronize the counters
// periodically" remark).
//
// The injector is driven by a *logical clock*: every cross-object access
// in the cluster calls Transport.Send, which advances a global sequence
// number under one mutex. All fault decisions — which message drops,
// when a site crashes or recovers — are functions of that sequence
// number and a seeded RNG consumed in sequence order, so a (Plan, seed)
// pair reproduces the exact same fault schedule byte-for-byte no matter
// how goroutines interleave. Schedule() returns the decision log for
// reproducibility assertions.
//
// Wall-clock time appears only in the injected message delays and the
// recovery timestamps used for latency reporting; it never influences
// which faults fire.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
)

// ErrSiteDown reports an access to (or from) a crashed site.
var ErrSiteDown = errors.New("fault: site down")

// ErrDropped reports a cross-site message lost in transit.
var ErrDropped = errors.New("fault: message dropped")

// ErrPartitioned reports a cross-site message refused by an active
// network partition: both endpoints are alive, but the link between
// their groups is cut. Distinct from ErrSiteDown so failure detection
// can tell "site dead" from "site unreachable".
var ErrPartitioned = errors.New("fault: network partitioned")

// Error carries the failing site and the underlying fault cause so the
// scheduler layer can name the unavailable site in its error.
type Error struct {
	Site int // the site that is down or unreachable
	Err  error
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("site %d: %v", e.Site, e.Err) }

// Unwrap exposes the cause for errors.Is.
func (e *Error) Unwrap() error { return e.Err }

// SiteOf extracts the failing site from a transport error (-1 if the
// error carries none).
func SiteOf(err error) int {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Site
	}
	return -1
}

// Transport is the injectable hook every cross-site (and local) object
// access of a DMT cluster goes through. A nil Transport in the cluster
// options means a perfect network.
type Transport interface {
	// Send delivers one logical request/reply exchange from site `from`
	// to the site `to` that homes the accessed object. A nil return means
	// the access succeeds; otherwise the returned error wraps ErrSiteDown
	// or ErrDropped and the access must fail fast without touching state.
	Send(from, to int) error
	// SiteUp reports whether the site is currently operational.
	SiteUp(site int) bool
}

// EventKind labels a scheduled site transition.
type EventKind int

// Site transition kinds.
const (
	// Crash fail-stops a site: its volatile item index is lost and, with
	// Event.Drift, its local counters reset (clock-skewed drift).
	Crash EventKind = iota
	// Recover brings a crashed site back; the cluster rebuilds its item
	// index and re-validates its counters against the survivors.
	Recover
	// Partition cuts the links between the event's site groups: sends
	// between sites of different groups fail with ErrPartitioned while
	// both endpoints stay alive. A single group is cut off from every
	// unlisted site; Event.OneWay makes the cut asymmetric.
	Partition
	// Heal restores the links the matching Partition cut (or every cut,
	// for a Heal with no groups).
	Heal
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case Partition:
		return "partition"
	default:
		return "heal"
	}
}

// Event is one scheduled site transition, fired when the injector's
// logical clock reaches At.
type Event struct {
	At    int64 // logical access sequence at which the event fires
	Kind  EventKind
	Site  int
	Drift bool // with Crash: also reset the site's local counters
	// Groups, for Partition and Heal, are the site groups whose mutual
	// links are cut or restored. A single group means "this group versus
	// every other site". A Heal with no groups clears every active cut.
	Groups [][]int
	// OneWay, with Partition, cuts only the Groups[0] -> Groups[1]
	// direction (or group -> rest, for a single group): an asymmetric
	// link failure. Symmetric cuts sever both directions.
	OneWay bool
}

// Plan is a named, deterministic fault schedule.
type Plan struct {
	Name string
	// DropRate is the per-message probability a cross-site exchange is
	// lost (0..1). Local accesses never drop.
	DropRate float64
	// Delay is the maximum injected cross-site latency; each exchange
	// sleeps uniformly in [0, Delay). Zero disables delays.
	Delay time.Duration
	// Events are site transitions ordered by At.
	Events []Event
}

// Hooks let the cluster react to site transitions: the injector calls
// OnCrash/OnRecover synchronously (outside its own lock) when an event
// fires, so the cluster can wipe volatile state and run recovery.
// OnHeal runs asynchronously after a heal restores links (clusters use
// it to re-synchronize counters and bound the skew the partition built
// up); OnPartition runs asynchronously when a cut lands.
type Hooks struct {
	OnCrash     func(site int, drift bool)
	OnRecover   func(site int)
	OnPartition func(groups [][]int, oneWay bool)
	OnHeal      func(groups [][]int)
}

// Stats are the injector's observable fault counters, built on the
// metrics toolkit so harnesses can surface them alongside throughput.
type Stats struct {
	Sent        metrics.Counter // logical exchanges attempted
	Dropped     metrics.Counter // cross-site messages lost
	Rejected    metrics.Counter // accesses refused because a site was down
	Partitioned metrics.Counter // accesses refused by an active link cut
	Crashes     metrics.Counter // crash events fired
	Recoveries  metrics.Counter // recovery events fired
	Partitions  metrics.Counter // partition events fired
	Heals       metrics.Counter // heal events fired
}

// Injector implements Transport for a Plan. Safe for concurrent use.
type Injector struct {
	plan  Plan
	sites int
	seed  int64
	hooks Hooks

	mu    sync.Mutex
	seq   int64
	next  int // index of the next unfired event
	down  []bool
	cut   [][]bool // cut[from][to]: link severed by a partition
	sched []string // decision log, one line per fault decision

	stats Stats
}

// New builds the injector for a plan over the given number of sites.
// The seed fixes every probabilistic decision: same (plan, sites, seed)
// means the same fault schedule. The plan must be valid for the site
// count (see Plan.Validate); an invalid plan panics — callers that want
// the typed error run Validate themselves first.
func New(plan Plan, sites int, seed int64) *Injector {
	if sites < 1 {
		panic("fault: sites must be >= 1")
	}
	if err := plan.Validate(sites); err != nil {
		panic("fault: invalid plan: " + err.Error())
	}
	cut := make([][]bool, sites)
	for i := range cut {
		cut[i] = make([]bool, sites)
	}
	return &Injector{
		plan:  plan.Normalize(),
		sites: sites,
		seed:  seed,
		down:  make([]bool, sites),
		cut:   cut,
	}
}

// SetHooks registers the cluster's crash/recovery callbacks. Must be set
// before traffic flows; the cluster wires this at construction.
func (in *Injector) SetHooks(h Hooks) {
	in.mu.Lock()
	in.hooks = h
	in.mu.Unlock()
}

// Stats exposes the fault counters.
func (in *Injector) Stats() *Stats { return &in.stats }

// Seq returns the current logical clock value.
func (in *Injector) Seq() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seq
}

// Schedule returns a copy of the fault-decision log: one line per drop,
// crash and recovery, each tagged with the logical sequence number at
// which it fired. Two runs with the same plan and seed produce identical
// schedules.
func (in *Injector) Schedule() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.sched...)
}

// PlannedSchedule renders the full fault schedule up to the given
// logical time as a pure function of (plan, seed): scheduled site events
// and every sequence slot whose cross-site message would drop. Identical
// for identical (plan, sites, seed) regardless of workload interleaving,
// which is what makes chaos runs reproducible.
func (in *Injector) PlannedSchedule(upTo int64) []string {
	var out []string
	next := 0
	for seq := int64(1); seq <= upTo; seq++ {
		for next < len(in.plan.Events) && in.plan.Events[next].At <= seq {
			ev := in.plan.Events[next]
			next++
			switch ev.Kind {
			case Partition:
				tag := "partition"
				if ev.OneWay {
					tag = "partition-oneway"
				}
				out = append(out, fmt.Sprintf("seq=%d %s %s", seq, tag, FormatGroups(ev.Groups)))
			case Heal:
				out = append(out, fmt.Sprintf("seq=%d heal %s", seq, FormatGroups(ev.Groups)))
			default:
				tag := ev.Kind.String()
				if ev.Kind == Crash && ev.Drift {
					tag = "crash+drift"
				}
				out = append(out, fmt.Sprintf("seq=%d %s site=%d", seq, tag, ev.Site))
			}
		}
		if in.wouldDrop(seq) {
			out = append(out, fmt.Sprintf("seq=%d would-drop", seq))
		}
	}
	return out
}

// SiteUp implements Transport.
func (in *Injector) SiteUp(site int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if site < 0 || site >= in.sites {
		return false
	}
	return !in.down[site]
}

// Partitioned reports whether any link cut is currently active — the
// "inside a partition window" predicate availability experiments
// measure against.
func (in *Injector) Partitioned() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, row := range in.cut {
		for _, c := range row {
			if c {
				return true
			}
		}
	}
	return false
}

// Reachable reports whether a message from -> to would currently pass
// the partition layer (it may still be dropped or hit a crashed site).
func (in *Injector) Reachable(from, to int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if from < 0 || from >= in.sites || to < 0 || to >= in.sites {
		return false
	}
	return !in.cut[from][to]
}

// cutPairs expands an event's groups into the directed group pairs
// whose links the event severs or restores: every ordered pair of
// distinct groups, with a single group paired against its complement.
// OneWay keeps only the first direction.
func cutPairs(groups [][]int, oneWay bool, sites int) [][2][]int {
	gs := groups
	if len(gs) == 1 {
		listed := map[int]bool{}
		for _, s := range gs[0] {
			listed[s] = true
		}
		var rest []int
		for s := 0; s < sites; s++ {
			if !listed[s] {
				rest = append(rest, s)
			}
		}
		gs = [][]int{gs[0], rest}
	}
	var pairs [][2][]int
	for i := range gs {
		for j := range gs {
			if i == j {
				continue
			}
			if oneWay && !(i == 0 && j == 1) {
				continue
			}
			pairs = append(pairs, [2][]int{gs[i], gs[j]})
		}
	}
	return pairs
}

// partitionLocked applies a partition event to the cut matrix. Returns
// true if at least one new link was severed. Caller holds mu.
func (in *Injector) partitionLocked(ev Event) bool {
	changed := false
	for _, p := range cutPairs(ev.Groups, ev.OneWay, in.sites) {
		for _, a := range p[0] {
			for _, b := range p[1] {
				if a != b && !in.cut[a][b] {
					in.cut[a][b] = true
					changed = true
				}
			}
		}
	}
	if !changed {
		return false
	}
	in.stats.Partitions.Inc()
	tag := "partition"
	if ev.OneWay {
		tag = "partition-oneway"
	}
	in.sched = append(in.sched, fmt.Sprintf("seq=%d %s %s", in.seq, tag, FormatGroups(ev.Groups)))
	return true
}

// healLocked applies a heal event: with groups, the cuts between those
// groups clear (both directions); with none, every cut clears. Returns
// true if at least one link was restored. Caller holds mu.
func (in *Injector) healLocked(ev Event) bool {
	changed := false
	if len(ev.Groups) == 0 {
		for a := range in.cut {
			for b := range in.cut[a] {
				if in.cut[a][b] {
					in.cut[a][b] = false
					changed = true
				}
			}
		}
	} else {
		for _, p := range cutPairs(ev.Groups, false, in.sites) {
			for _, a := range p[0] {
				for _, b := range p[1] {
					if in.cut[a][b] {
						in.cut[a][b] = false
						changed = true
					}
				}
			}
		}
	}
	if !changed {
		return false
	}
	in.stats.Heals.Inc()
	in.sched = append(in.sched, fmt.Sprintf("seq=%d heal %s", in.seq, FormatGroups(ev.Groups)))
	return true
}

// Partition cuts the links between the given site groups immediately
// (manual control for tests; scheduled plans use Events).
func (in *Injector) Partition(groups [][]int, oneWay bool) {
	in.mu.Lock()
	fired := in.partitionLocked(Event{At: in.seq, Kind: Partition, Groups: groups, OneWay: oneWay})
	hooks := in.hooks
	in.mu.Unlock()
	if fired && hooks.OnPartition != nil {
		hooks.OnPartition(groups, oneWay)
	}
}

// Heal restores the links between the given site groups (all links with
// nil groups) immediately.
func (in *Injector) Heal(groups [][]int) {
	in.mu.Lock()
	fired := in.healLocked(Event{At: in.seq, Kind: Heal, Groups: groups})
	hooks := in.hooks
	in.mu.Unlock()
	if fired && hooks.OnHeal != nil {
		hooks.OnHeal(groups)
	}
}

// Crash fail-stops a site immediately (manual control for tests and
// interactive drivers; scheduled plans use Events). The caller must not
// hold cluster locks: the crash hook runs synchronously.
func (in *Injector) Crash(site int, drift bool) {
	in.mu.Lock()
	fired := in.crashLocked(Event{At: in.seq, Kind: Crash, Site: site, Drift: drift})
	hooks := in.hooks
	in.mu.Unlock()
	if fired && hooks.OnCrash != nil {
		hooks.OnCrash(site, drift)
	}
}

// Recover brings a crashed site back immediately: the recovery hook runs
// synchronously and the site is only marked up once it completes, so no
// traffic reaches a half-rebuilt site. The caller must not hold cluster
// locks.
func (in *Injector) Recover(site int) {
	in.mu.Lock()
	fired := in.beginRecoverLocked(Event{At: in.seq, Kind: Recover, Site: site})
	hooks := in.hooks
	in.mu.Unlock()
	if !fired {
		return
	}
	if hooks.OnRecover != nil {
		hooks.OnRecover(site)
	}
	in.markUp(site)
}

// crashLocked flips the site down and logs the decision. Caller holds mu.
func (in *Injector) crashLocked(ev Event) bool {
	if ev.Site < 0 || ev.Site >= in.sites || in.down[ev.Site] {
		return false
	}
	in.down[ev.Site] = true
	in.stats.Crashes.Inc()
	tag := "crash"
	if ev.Drift {
		tag = "crash+drift"
	}
	in.sched = append(in.sched, fmt.Sprintf("seq=%d %s site=%d", in.seq, tag, ev.Site))
	return true
}

// beginRecoverLocked logs a recovery decision but leaves the site down:
// the caller runs the recovery hook and then markUp, so the site only
// serves traffic once its state is rebuilt. Caller holds mu.
func (in *Injector) beginRecoverLocked(ev Event) bool {
	if ev.Site < 0 || ev.Site >= in.sites || !in.down[ev.Site] {
		return false
	}
	in.stats.Recoveries.Inc()
	in.sched = append(in.sched, fmt.Sprintf("seq=%d recover site=%d", in.seq, ev.Site))
	return true
}

// markUp completes a recovery.
func (in *Injector) markUp(site int) {
	in.mu.Lock()
	in.down[site] = false
	in.mu.Unlock()
}

// Send implements Transport. Each call advances the logical clock, fires
// any due scheduled events, then decides the fate of this exchange. Drop
// and delay decisions are pure functions of (seed, sequence number), so
// the fault schedule does not depend on which goroutine's access drew
// which sequence slot.
func (in *Injector) Send(from, to int) error {
	in.mu.Lock()
	in.seq++
	seq := in.seq

	// Fire scheduled events whose time has come; callbacks run after the
	// injector lock is released (the cluster's handlers take their own
	// locks).
	var crashes, recovers, partitions, heals []Event
	for in.next < len(in.plan.Events) && in.plan.Events[in.next].At <= seq {
		ev := in.plan.Events[in.next]
		in.next++
		switch ev.Kind {
		case Crash:
			if in.crashLocked(ev) {
				crashes = append(crashes, ev)
			}
		case Recover:
			if in.beginRecoverLocked(ev) {
				recovers = append(recovers, ev)
			}
		case Partition:
			if in.partitionLocked(ev) {
				partitions = append(partitions, ev)
			}
		case Heal:
			if in.healLocked(ev) {
				heals = append(heals, ev)
			}
		}
	}

	var err error
	var site int
	switch {
	case in.down[from]:
		err, site = ErrSiteDown, from
	case in.down[to]:
		err, site = ErrSiteDown, to
	case in.cut[from][to]:
		// Both endpoints are alive; the link between their groups is cut.
		// Not logged per-send: a partition window refuses thousands of
		// exchanges and the decision is fully determined by the cut state
		// (the partition/heal events ARE the schedule entries).
		err, site = ErrPartitioned, to
	case from != to && in.wouldDrop(seq):
		err, site = ErrDropped, to
		in.sched = append(in.sched, fmt.Sprintf("seq=%d drop %d->%d", seq, from, to))
	}
	var delay time.Duration
	if err == nil && from != to {
		delay = in.delayFor(seq)
	}
	hooks := in.hooks
	if hooks.OnRecover == nil {
		// Nothing to rebuild: the site is up as soon as this send's own
		// fate is decided (the send still saw it down), so the sequence
		// number it is up again at does not depend on goroutine timing.
		for _, ev := range recovers {
			in.down[ev.Site] = false
		}
		recovers = nil
	}
	in.mu.Unlock()

	for _, ev := range crashes {
		if hooks.OnCrash != nil {
			hooks.OnCrash(ev.Site, ev.Drift)
		}
	}
	// A scheduled recovery hook runs asynchronously: the goroutine in
	// whose Send the event fired may hold cluster locks the handler
	// needs. The site stays down until the rebuild completes.
	for _, ev := range recovers {
		go func(site int) {
			hooks.OnRecover(site)
			in.markUp(site)
		}(ev.Site)
	}
	// Partition and heal notifications likewise run asynchronously: the
	// heal handler typically re-synchronizes counters, which itself sends.
	for _, ev := range partitions {
		if hooks.OnPartition != nil {
			go hooks.OnPartition(ev.Groups, ev.OneWay)
		}
	}
	for _, ev := range heals {
		if hooks.OnHeal != nil {
			go hooks.OnHeal(ev.Groups)
		}
	}

	in.stats.Sent.Inc()
	if err != nil {
		switch {
		case errors.Is(err, ErrDropped):
			in.stats.Dropped.Inc()
		case errors.Is(err, ErrPartitioned):
			in.stats.Partitioned.Inc()
		default:
			in.stats.Rejected.Inc()
		}
		return &Error{Site: site, Err: err}
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return nil
}

// wouldDrop decides message loss for a sequence slot: a pure function of
// the injector seed and the slot, never of goroutine interleaving.
func (in *Injector) wouldDrop(seq int64) bool {
	if in.plan.DropRate <= 0 {
		return false
	}
	u := splitmix64(uint64(in.seed) ^ uint64(seq)*0x9E3779B97F4A7C15)
	return float64(u>>11)/float64(1<<53) < in.plan.DropRate
}

// delayFor derives the injected latency for a sequence slot.
func (in *Injector) delayFor(seq int64) time.Duration {
	if in.plan.Delay <= 0 {
		return 0
	}
	u := splitmix64(uint64(in.seed)*0xBF58476D1CE4E5B9 ^ uint64(seq))
	return time.Duration(u % uint64(in.plan.Delay))
}

// Mix derives a deterministic 64-bit value from a seed and a logical
// sequence number — the seeded-logical-clock idiom every injector in
// this package is built on (drop decisions, delays). Exported so other
// fault-injection layers (the WAL's crash-point filesystem) schedule
// their decisions the same way: as pure functions of (seed, sequence),
// never of goroutine interleaving.
func Mix(seed, seq int64) uint64 {
	return splitmix64(uint64(seed) ^ uint64(seq)*0x9E3779B97F4A7C15)
}

// splitmix64 is the finalizer of the SplitMix64 generator.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}
