package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/admit"
	"repro/internal/engine"
	"repro/internal/oplog"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

const (
	poolSize       = 1 << 16 // transaction specs per workload, cycled
	vectorK        = 7       // 2q-1 for q = 4 operations (Theorem 3)
	initialBalance = 1000
)

// workloadDef is one workload: which stack is built and how it is
// driven. The why strings are BENCHMARK.json's.
type workloadDef struct {
	name string
	why  string
	// bank selects workload.Transfers over the items (R,R,W,W with Value
	// closures, balance-preserving); otherwise the uniform 4-op mix with
	// 70 % reads.
	bank  bool
	items int
	sched func(*storage.Store) sched.Scheduler
	// durable puts a wal.Writer (SyncGroup, default BatchDelay,
	// CheckpointEvery 4096) under the store, wired as sim.Run wires it.
	durable bool
	admit   bool
	// rate > 0 makes the workload open loop at that many arrivals/s.
	rate float64
	// clientsPerP is the closed-loop client count per processor (0 = 1).
	clientsPerP int
	warmup      int
}

func mtStriped(deferWrites bool) func(*storage.Store) sched.Scheduler {
	return func(st *storage.Store) sched.Scheduler {
		return sched.NewMTStriped(st, sched.MTOptions{
			Core:        engine.Options{K: vectorK, StarvationAvoidance: true},
			DeferWrites: deferWrites,
		})
	}
}

var workloads = []workloadDef{
	{
		name:   "uniform_closed",
		why:    "low contention, 70% reads over 1024 items on MT(7)/striped: time goes to the per-operation path and txn.Runtime's per-attempt overhead",
		items:  1024,
		sched:  mtStriped(false),
		warmup: 50000,
	},
	{
		name:   "bank_hot_closed",
		why:    "transfers over 16 accounts with deferred writes: real conflicts, so abort/restart/backoff, write buffer and ApplyTxnIDs do the work",
		bank:   true,
		items:  16,
		sched:  mtStriped(true),
		warmup: 50000,
	},
	{
		name:        "durable_closed",
		why:         "transfers over 1024 accounts on a group-commit WAL with real fsync: the log dominates, so a logging change shows and an engine change must not",
		bank:        true,
		items:       1024,
		sched:       mtStriped(true),
		durable:     true,
		clientsPerP: 4,
		warmup:      2000,
	},
	{
		name:  "composite_open",
		why:   "MT(7+) composite behind the admission gate at a fixed 8000 arrivals/s, timed from the due time: path cost plus queueing, with idle gaps",
		items: 1024,
		sched: func(st *storage.Store) sched.Scheduler {
			return sched.NewComposite(st, vectorK, engine.Options{StarvationAvoidance: true})
		},
		admit:  true,
		rate:   8000,
		warmup: 50000,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// clientsFor is the number of load-generating goroutines on p
// processors: one per P closed loop; open loop leaves one P free,
// because yield-waiting clients on every P starve everything else.
func (d *workloadDef) clientsFor(p int) int {
	if d.rate > 0 && p > 1 {
		return p - 1
	}
	return p * max(d.clientsPerP, 1)
}

// stack is one built instance of a workload: the program under test
// plus the clients that drive it.
type stack struct {
	def   *workloadDef
	pool  []txn.Spec
	items []string

	store  *storage.Store
	sched  sched.Scheduler // undecorated
	rt     *txn.Runtime
	ctrl   *admit.Controller
	wal    *wal.Writer
	walDir string

	clients []client
	tracer  *tracer // non-nil while a traced phase runs
}

// genPool makes a workload's transaction specs from the seed alone.
func genPool(d *workloadDef, seed int64) (pool []txn.Spec, items []string) {
	items = workload.Config{Items: d.items}.ItemNames()
	if d.bank {
		return workload.Transfers(poolSize, items, 1, seed), items
	}
	return workload.Config{
		Txns: poolSize, OpsPerTxn: 4, Items: d.items, ReadFraction: 0.7, Seed: seed,
	}.Generate(), items
}

// stackOpts vary a build for the serial ledger rows.
type stackOpts struct {
	clients  int
	noWAL    bool           // leave the log out (serial rows of the layers above it)
	noAdmit  bool           // leave the admission gate out
	walSync  wal.SyncPolicy // flush policy when the log is in
	deadline time.Duration  // txn.Runtime.Deadline
}

// build constructs the stack from the repository's public constructors,
// in the order sim.Run uses: open the log, attach it, preload, build
// the scheduler, seed its counters from the log, then the runtime.
func build(d *workloadDef, seed int64, tmp string, o stackOpts) (*stack, error) {
	st := &stack{def: d, store: storage.New()}
	st.pool, st.items = genPool(d, seed)
	if d.durable && !o.noWAL {
		dir, err := os.MkdirTemp(tmp, "wal-")
		if err != nil {
			return nil, fmt.Errorf("wal directory: %w", err)
		}
		st.walDir = dir
		w, rec, err := wal.Open(wal.Options{Dir: dir, Sync: o.walSync, CheckpointEvery: 4096})
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("opening WAL: %w", err)
		}
		st.wal = w
		st.store = storage.Restore(rec.Store)
		w.Attach(st.store, nil)
	}
	var initial int64
	if d.bank {
		initial = initialBalance
	}
	for _, x := range st.items {
		st.store.Set(x, initial)
	}
	st.sched = d.sched(st.store)
	st.rt = &txn.Runtime{
		Sched: st.sched, MaxAttempts: 1000, Backoff: 20 * time.Microsecond,
		Seed: seed, Deadline: o.deadline,
	}
	if st.wal != nil {
		if dc, ok := st.sched.(sched.DurableCounters); ok {
			dc.SeedWALCounters(0, 0)
			st.wal.SetCounterSource(dc.WALCounters)
		}
		st.rt.Durable = st.wal
	}
	if d.admit && !o.noAdmit {
		st.ctrl = admit.NewController(admit.Options{})
		st.rt.Admit = st.ctrl
	}
	st.clients = make([]client, o.clients)
	for i := range st.clients {
		st.clients[i] = client{idx: i, n: o.clients, arr: newArrivals(seed, i, d.rate/float64(o.clients))}
	}
	return st, nil
}

// setTracer swaps the decorators in (or, with nil, out) between
// phases, when no transaction is in flight.
func (st *stack) setTracer(t *tracer) {
	st.tracer = t
	st.rt.Sched = st.sched
	if st.wal != nil {
		st.rt.Durable = st.wal
		st.store.SetJournal(st.wal.Journal)
	}
	if t == nil {
		return
	}
	st.rt.Sched = &tracedSched{Scheduler: st.sched, t: t}
	if st.wal != nil {
		st.rt.Durable = &tracedDurable{inner: st.wal, t: t}
		st.store.SetJournal(t.journal(st.wal.Journal))
	}
}

// close releases the log and its directory.
func (st *stack) close() error {
	if st.wal == nil {
		return nil
	}
	err := st.wal.Close()
	st.wal = nil
	if rerr := os.RemoveAll(st.walDir); err == nil {
		err = rerr
	}
	return err
}

// specAt is the spec a client issues as its seq-th transaction: the
// pool entry with a fresh id. The Ops slice is shared with the pool, so
// issuing a transaction allocates nothing.
func (st *stack) specAt(c *client, seq int) txn.Spec {
	spec := st.pool[(c.idx*(poolSize/c.n)+seq)&(poolSize-1)]
	spec.ID = 1 + c.idx + seq*c.n
	return spec
}

// specOf inverts specAt's id assignment.
func (st *stack) specOf(id int) txn.Spec {
	n := len(st.clients)
	return st.specAt(&st.clients[(id-1)%n], (id-1)/n)
}

func writes(spec txn.Spec, item string) bool {
	for _, op := range spec.Ops {
		if op.Kind == oplog.Write && op.Item == item {
			return true
		}
	}
	return false
}
