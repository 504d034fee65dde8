// Package sim is the experiment harness: it runs a workload against a
// scheduler with a worker pool and reports throughput, abort/retry counts
// and latency percentiles. The runtime benchmarks (bench_test.go) and the
// cmd/mtsim tool are thin wrappers over it.
package sim

import (
	"fmt"
	"time"

	"repro/internal/admit"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Config describes one simulation run.
type Config struct {
	// NewScheduler builds the scheduler under test over the given store.
	NewScheduler func(*storage.Store) sched.Scheduler
	// Specs is the workload.
	Specs []txn.Spec
	// Workers is the number of concurrent client goroutines.
	Workers int
	// MaxAttempts bounds per-transaction conflict retries (0 = forever).
	MaxAttempts int
	// Backoff is the retry backoff base (0 = none).
	Backoff time.Duration
	// Think is the per-operation think time (forces overlap).
	Think time.Duration
	// Initial sets initial item values (item -> value); optional. With a
	// WAL it only applies to a fresh log directory: a durable restart
	// restores the seeded items' committed values from the log instead.
	Initial map[string]int64
	// RuntimeSeed perturbs per-transaction retry jitter (see
	// txn.Runtime.Seed); 0 keeps the legacy per-spec seeding.
	RuntimeSeed int64
	// AttemptTimeout bounds one attempt's wall time (0 = unbounded).
	AttemptTimeout time.Duration
	// UnavailableBudget bounds unavailability retries (0 = forever).
	UnavailableBudget int
	// UnavailableBackoff is the backoff base for unavailability retries
	// (0 = use Backoff).
	UnavailableBackoff time.Duration
	// FaultStats, when set, is attached to the Report so chaos harnesses
	// can print injector counters next to throughput.
	FaultStats *fault.Stats
	// WAL, when set, makes commits durable: the run opens (and recovers)
	// the write-ahead log directory, restores the store from it, attaches
	// the journal before seeding, seeds the scheduler's counters from the
	// recovered watermarks, and acks each commit only after its redo
	// record reaches stable storage per the options' sync policy.
	WAL *wal.Options
	// OnWALOpen, when set together with WAL, runs after the log writer
	// is opened and attached, before any batch is journaled. Crash
	// harnesses use it to capture the writer (e.g. to read
	// LastWatermarks from the Observe hook).
	OnWALOpen func(*wal.Writer, *wal.RecoveredState)
	// Observe, when set, sees every committed batch (after the WAL
	// journal, both under the store mutex). Crash harnesses use it to
	// build the shadow copy recovery is checked against. Per the
	// storage.Journal contract the maps are only valid during the call.
	Observe storage.Journal
	// KeepResults attaches every per-transaction txn.Result to the
	// Report (crash harnesses need the durable-ack per transaction).
	KeepResults bool
	// Repro, when set, is attached verbatim to the Report: the effective
	// seeds and the planned fault schedule (Injector.PlannedSchedule), so
	// a failing chaos/partition run is replayable from its log alone.
	Repro []string
	// Admit, when set, puts an overload controller in front of the
	// runtime: admission is gated by its adaptive concurrency limiter
	// (excess load is shed with ErrOverloaded), restart-storm damping
	// widens backoffs globally, and priority aging gives starving
	// transactions precedence. The controller's stats land on the Report.
	Admit *admit.Options
	// Deadline bounds each transaction's total wall time (admission wait,
	// every attempt and every backoff included); 0 = none. Missed
	// deadlines are reported per-transaction and counted on the Report.
	Deadline time.Duration
	// ShedPause is the rejected client's retry-after pause: a shed
	// transaction sleeps this long before its worker offers the next
	// one. See txn.Runtime.ShedPause.
	ShedPause time.Duration
}

// Report aggregates one run's results.
type Report struct {
	Name         string
	Txns         int
	Committed    int64
	GaveUp       int64 // transactions that exhausted a retry budget
	Shed         int64 // transactions refused admission (ErrOverloaded)
	DeadlineMiss int64 // transactions that ran out of deadline
	Attempts     int64 // total executions, committed or not
	Restarts     int64 // Attempts - Txns that finished (retry count)
	Unavailable  int64 // attempts ended by sched.ErrUnavailable
	Timeouts     int64 // attempts abandoned by the per-attempt timeout
	Durable      int64 // commits acked durable (== Committed without a WAL)
	Wall         time.Duration
	Latency      *metrics.Histogram
	Store        *storage.Store
	Fault        *fault.Stats         // injector counters (nil without faults)
	WAL          *wal.Stats           // log writer counters (nil without a WAL)
	Results      []txn.Result         // per-transaction results (KeepResults only)
	Recovered    *wal.RecoveredState  // state the run started from (WAL only)
	Degraded     *sched.DegradedStats // degraded-mode commit counters (DMT only)
	Admit        *admit.Stats         // overload controller counters (Config.Admit only)
	Breaker      *admit.BreakerStats  // per-site circuit breaker counters (if installed)
	Repro        []string             // replay lines (Config.Repro, verbatim)
}

// Throughput returns committed transactions per second: transactions
// that committed (within their deadline, when one was set). Shed and
// deadline-missed transactions cost wall time but produce nothing, so
// under overload this is goodput, not offered load.
func (r *Report) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Wall.Seconds()
}

// AbortRate returns the fraction of attempts that aborted.
func (r *Report) AbortRate() float64 {
	if r.Attempts == 0 {
		return 0
	}
	return float64(r.Restarts) / float64(r.Attempts)
}

// String renders a one-line summary. Gave-up and restart counts appear
// alongside throughput so degraded runs are visible at a glance;
// unavailability counters are appended only when they fired.
func (r *Report) String() string {
	s := fmt.Sprintf("%-14s txns=%d committed=%d gaveup=%d restarts=%d abort-rate=%.3f tput=%.0f/s mean-lat=%.0fµs p99=%dµs",
		r.Name, r.Txns, r.Committed, r.GaveUp, r.Restarts, r.AbortRate(), r.Throughput(),
		r.Latency.Mean()/1e3, r.Latency.Percentile(99)/1000)
	if r.Unavailable > 0 || r.Timeouts > 0 {
		s += fmt.Sprintf(" unavail=%d timeouts=%d", r.Unavailable, r.Timeouts)
	}
	if r.Shed > 0 || r.DeadlineMiss > 0 {
		s += fmt.Sprintf(" shed=%d deadline-miss=%d", r.Shed, r.DeadlineMiss)
	}
	if r.Admit != nil {
		s += " [admit: " + r.Admit.String() + "]"
	}
	if r.Breaker != nil {
		s += fmt.Sprintf(" [breaker: trips=%d fast-fails=%d reprobes=%d open=%d]",
			r.Breaker.Trips, r.Breaker.FastFails, r.Breaker.Reprobes, r.Breaker.Open)
	}
	if r.Fault != nil {
		s += fmt.Sprintf(" [faults: sent=%d dropped=%d rejected=%d crashes=%d recoveries=%d",
			r.Fault.Sent.Value(), r.Fault.Dropped.Value(), r.Fault.Rejected.Value(),
			r.Fault.Crashes.Value(), r.Fault.Recoveries.Value())
		if r.Fault.Partitions.Value() > 0 || r.Fault.Partitioned.Value() > 0 {
			s += fmt.Sprintf(" partitions=%d heals=%d part-refused=%d",
				r.Fault.Partitions.Value(), r.Fault.Heals.Value(), r.Fault.Partitioned.Value())
		}
		s += "]"
	}
	if r.Degraded != nil {
		s += fmt.Sprintf(" [degraded: parked=%d healed=%d expired=%d queue-full=%d window-attempts=%d window-commits=%d avail=%.3f]",
			r.Degraded.Parked, r.Degraded.Healed, r.Degraded.Expired, r.Degraded.Rejected,
			r.Degraded.WindowAttempts, r.Degraded.WindowCommits, r.Degraded.Availability())
	}
	if r.WAL != nil {
		s += fmt.Sprintf(" [wal: durable=%d fsyncs=%d batch-mean=%.1f fsync-p50=%dµs fsync-p99=%dµs ckpts=%d]",
			r.Durable, r.WAL.Syncs.Value(), r.WAL.BatchRecords.Mean(),
			r.WAL.FsyncNs.Percentile(50)/1000, r.WAL.FsyncNs.Percentile(99)/1000,
			r.WAL.Checkpoints.Value())
	}
	return s
}

// Run executes the configured simulation. With cfg.WAL set the run is
// durable: it restores the store and counter watermarks from the log
// directory before traffic and journals every commit; a WAL that fails
// to open panics (an experiment cannot meaningfully continue without
// the durability it was asked to measure).
func Run(cfg Config) *Report {
	store := storage.New()
	var w *wal.Writer
	var recovered *wal.RecoveredState
	if cfg.WAL != nil {
		var err error
		w, recovered, err = wal.Open(*cfg.WAL)
		if err != nil {
			panic(fmt.Sprintf("sim: opening WAL: %v", err))
		}
		store = storage.Restore(recovered.Store)
		w.Attach(store, nil)
		if cfg.OnWALOpen != nil {
			cfg.OnWALOpen(w, recovered)
		}
	}
	if cfg.Observe != nil {
		journal := cfg.Observe
		if w != nil {
			wj := w.Journal
			journal = func(ev storage.ApplyEvent) { wj(ev); cfg.Observe(ev) }
		}
		store.SetJournal(journal)
	}
	// Seed initial values only on a fresh store: a durable restart has
	// already recovered the seeded items (possibly overwritten by later
	// commits), and re-seeding would clobber committed values while
	// journaling spurious new versions for them.
	if recovered == nil || recovered.Store.Version == 0 {
		for x, v := range cfg.Initial {
			store.Set(x, v)
		}
	}
	s := cfg.NewScheduler(store)
	if w != nil {
		if dc, ok := s.(sched.DurableCounters); ok {
			dc.SeedWALCounters(recovered.Lo, recovered.Hi)
			w.SetCounterSource(dc.WALCounters)
		}
	}
	rt := &txn.Runtime{
		Sched: s, MaxAttempts: cfg.MaxAttempts, Backoff: cfg.Backoff, Think: cfg.Think,
		Seed: cfg.RuntimeSeed, AttemptTimeout: cfg.AttemptTimeout,
		UnavailableBudget: cfg.UnavailableBudget, UnavailableBackoff: cfg.UnavailableBackoff,
		Deadline: cfg.Deadline, ShedPause: cfg.ShedPause,
	}
	var ctrl *admit.Controller
	if cfg.Admit != nil {
		ctrl = admit.NewController(*cfg.Admit)
		rt.Admit = ctrl
	}
	if w != nil {
		rt.Durable = w
	}
	rep := &Report{
		Name:      s.Name(),
		Txns:      len(cfg.Specs),
		Latency:   &metrics.Histogram{},
		Store:     store,
		Fault:     cfg.FaultStats,
		Recovered: recovered,
		Repro:     cfg.Repro,
	}
	if w != nil {
		rep.WAL = w.Stats()
	}
	start := time.Now()
	results := rt.Pool(cfg.Specs, cfg.Workers)
	rep.Wall = time.Since(start)
	for _, res := range results {
		rep.Attempts += int64(res.Attempts)
		switch {
		case res.Committed:
			rep.Committed++
		case res.Shed:
			rep.Shed++
		case res.DeadlineExceeded:
			rep.DeadlineMiss++
		default:
			rep.GaveUp++
		}
		if res.Committed && res.Durable {
			rep.Durable++
		}
		if res.Attempts > 0 {
			rep.Restarts += int64(res.Attempts - 1)
		}
		rep.Unavailable += int64(res.Unavailable)
		rep.Timeouts += int64(res.Timeouts)
		// Shed transactions never executed; their near-zero "latency"
		// would only dilute the percentiles of work that actually ran.
		if !res.Shed {
			rep.Latency.ObserveDuration(res.Latency)
		}
	}
	if cfg.KeepResults {
		rep.Results = results
	}
	// Look through decorators (e.g. history.Recorder) for the
	// degraded-mode counters of the scheduler underneath.
	inner := sched.Scheduler(s)
	for {
		u, ok := inner.(interface{ Unwrap() sched.Scheduler })
		if !ok {
			break
		}
		inner = u.Unwrap()
	}
	if dg, ok := inner.(interface{ Degraded() sched.DegradedStats }); ok {
		if snap := dg.Degraded(); snap.WindowAttempts > 0 || snap.Parked > 0 || snap.Rejected > 0 {
			rep.Degraded = &snap
		}
	}
	if bk, ok := inner.(interface{ Breaker() *admit.Breaker }); ok {
		if b := bk.Breaker(); b != nil {
			snap := b.Stats()
			rep.Breaker = &snap
		}
	}
	if ctrl != nil {
		snap := ctrl.Stats()
		rep.Admit = &snap
	}
	if w != nil {
		// Close flushes the tail; a writer that already died (injected
		// crash) reports the sticky error, which the run has already
		// accounted for per-transaction in the durable acks.
		_ = w.Close()
	}
	return rep
}
