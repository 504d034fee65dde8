package mdts

import (
	"repro/internal/adaptive"
	"repro/internal/admit"
	"repro/internal/engine"
	"repro/internal/interval"
	"repro/internal/lock"
	"repro/internal/mvmt"
	"repro/internal/occ"
	"repro/internal/sched"
	"repro/internal/sgt"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tsto"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Runtime layer: schedulers that execute real transactions over a store,
// the goroutine transaction runtime, workload generation and the
// simulation harness.
type (
	// Store is the committed-state key-value store.
	Store = storage.Store
	// RuntimeScheduler is the concurrency-control interface every
	// protocol implements at runtime.
	RuntimeScheduler = sched.Scheduler
	// Txn is a transaction specification for the runtime.
	Txn = txn.Spec
	// TxnOp is one step of a transaction.
	TxnOp = txn.Op
	// TxnResult reports a transaction's fate.
	TxnResult = txn.Result
	// Runtime executes transactions with retry.
	Runtime = txn.Runtime
	// Workload parameterizes generated transaction mixes.
	Workload = workload.Config
	// SimConfig configures a simulation run.
	SimConfig = sim.Config
	// SimReport aggregates a simulation's results.
	SimReport = sim.Report
)

// ErrAbort is returned (wrapped) by runtime schedulers when a transaction
// must abort and may be retried.
var ErrAbort = sched.ErrAbort

// NewStore returns an empty store.
func NewStore() *Store { return storage.New() }

// ReadOp and WriteOp build transaction steps.
func ReadOp(item string) TxnOp  { return txn.R(item) }
func WriteOp(item string) TxnOp { return txn.W(item) }

// Transfer builds a balance-preserving transfer transaction.
func Transfer(id int, src, dst string, amount int64) Txn {
	return workload.Transfer(id, src, dst, amount)
}

// Transfers generates n random transfers among the accounts.
func Transfers(n int, accounts []string, amount int64, seed int64) []Txn {
	return workload.Transfers(n, accounts, amount, seed)
}

// NewMTRuntime returns the MT(k) runtime scheduler over the store: the
// production transaction lifecycle on the fine-grained-locking engine
// (operations on disjoint items run concurrently). deferWrites selects
// the Section VI-C-2 commit-time write validation.
func NewMTRuntime(store *Store, opts MTOptions, deferWrites bool) RuntimeScheduler {
	return sched.NewMTStriped(store, sched.MTOptions{Core: opts, DeferWrites: deferWrites})
}

// NewCompositeRuntime returns the MT(k⁺) runtime scheduler.
func NewCompositeRuntime(store *Store, k int, sub MTOptions) RuntimeScheduler {
	return sched.NewComposite(store, k, sub)
}

// NewNestedRuntime returns the hierarchical MT(k1, ..., kl) runtime
// scheduler (deferred writes, striped data path). A nil unitOf puts
// every transaction in one group, reducing the protocol to MT(ks[0]).
func NewNestedRuntime(store *Store, ks []int, unitOf func(txn, lvl int) int) RuntimeScheduler {
	return sched.NewNested(store, sched.NestedOptions{Ks: ks, UnitOf: unitOf})
}

// NewDMTRuntime returns the DMT(k) runtime scheduler over a cluster of
// simulated sites (striped data path).
func NewDMTRuntime(store *Store, opts DMTOptions) RuntimeScheduler {
	return sched.NewDMT(store, opts)
}

// NewTwoPLRuntime returns the strict two-phase-locking baseline.
func NewTwoPLRuntime(store *Store) RuntimeScheduler { return lock.NewTwoPL(store) }

// NewTORuntime returns the single-valued timestamp-ordering baseline.
func NewTORuntime(store *Store, thomas bool) RuntimeScheduler {
	return tsto.New(store, tsto.Options{ThomasWriteRule: thomas})
}

// NewOCCRuntime returns the optimistic (Kung-Robinson) baseline.
func NewOCCRuntime(store *Store) RuntimeScheduler { return occ.New(store) }

// NewSGTRuntime returns the serialization-graph-tester baseline (accepts
// exactly DSR prefixes).
func NewSGTRuntime(store *Store) RuntimeScheduler { return sgt.New(store) }

// NewIntervalRuntime returns the Bayer-style dynamic timestamp-interval
// baseline of Section VI-A.
func NewIntervalRuntime(store *Store) RuntimeScheduler {
	return interval.New(store, interval.Options{})
}

// NewMVMTRuntime returns the multiversion MT(k) extension (reads slide to
// older versions instead of aborting).
func NewMVMTRuntime(store *Store, k int) RuntimeScheduler {
	return mvmt.New(store, mvmt.Options{K: k})
}

// AdaptiveOptions tunes the self-adjusting MT(k) scheduler.
type AdaptiveOptions = adaptive.Options

// NewAdaptiveRuntime returns the self-tuning MT(k) scheduler: the vector
// size grows under abort pressure and shrinks when quiet, switching only
// at quiescent epoch boundaries (the paper's adaptable-CC remark).
func NewAdaptiveRuntime(store *Store, opts AdaptiveOptions) RuntimeScheduler {
	return adaptive.New(store, opts)
}

// RunSim executes a simulation and returns its report.
func RunSim(cfg SimConfig) *SimReport { return sim.Run(cfg) }

// Overload-control layer: adaptive admission, restart-storm damping,
// priority aging and deadline propagation (DESIGN.md §12). Set
// SimConfig.Admit (and optionally SimConfig.Deadline) to put the
// controller in front of a simulation's runtime.
type (
	// AdmitOptions configures the controller: the AIMD concurrency
	// limiter, the aging table (express lane, elder barrier, crisis
	// gate) and the storm detector.
	AdmitOptions = admit.Options
	// AdmitController gates admission, scales backoffs and tracks ages.
	AdmitController = admit.Controller
	// AdmitStats is the controller's counters, attached to SimReport.
	AdmitStats = admit.Stats
)

// ErrOverloaded is returned (wrapped in a typed *admit.OverloadError)
// when admission is refused because the system is past its limit.
var ErrOverloaded = admit.ErrOverloaded

// ErrDeadlineExceeded is returned when a transaction's deadline expires
// before it commits (admission wait, attempts and backoffs included).
var ErrDeadlineExceeded = sched.ErrDeadlineExceeded

// NewAdmitController builds an overload controller for use with
// txn.Runtime.Admit.
func NewAdmitController(opts AdmitOptions) *AdmitController { return admit.NewController(opts) }

// Durability layer: the write-ahead log that makes runtime commits
// crash-safe (redo records, group commit, checkpoints, recovery).
type (
	// WALOptions configures a log directory, sync policy and batching;
	// set SimConfig.WAL to make a simulation durable.
	WALOptions = wal.Options
	// WALWriter is the group-commit log writer.
	WALWriter = wal.Writer
	// WALRecovered is the state reconstructed from a log directory.
	WALRecovered = wal.RecoveredState
	// WALSyncPolicy selects when commits are fsynced.
	WALSyncPolicy = wal.SyncPolicy
)

// Sync policies for WALOptions.Sync.
const (
	SyncGroup  = wal.SyncGroup  // batched fsync (group commit, default)
	SyncAlways = wal.SyncAlways // fsync every flush, no gather delay
	SyncNone   = wal.SyncNone   // write without fsync (volatile tail)
)

// OpenWAL opens (creating or recovering) a write-ahead log directory
// and returns the writer plus the recovered state to restart from.
func OpenWAL(opts WALOptions) (*WALWriter, *WALRecovered, error) { return wal.Open(opts) }

// RecoverWAL reads a log directory without opening it for writing:
// checkpoint + redo suffix, torn tail truncated, corruption rejected
// with a typed *wal.CorruptError.
func RecoverWAL(dir string) (*WALRecovered, error) { return wal.Recover(nil, dir) }

// DefaultMTOptions returns the recommended production configuration:
// k = 2q-1 for the expected transaction length q (Section VI-B guideline
// (b)), with the starvation fix enabled.
func DefaultMTOptions(expectedOps int) MTOptions {
	k := 2*expectedOps - 1
	if k < 1 {
		k = 1
	}
	return engine.Options{K: k, StarvationAvoidance: true}
}
