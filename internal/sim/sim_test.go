package sim

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/interval"
	"repro/internal/lock"
	"repro/internal/occ"
	"repro/internal/sched"
	"repro/internal/sgt"
	"repro/internal/storage"
	"repro/internal/tsto"
	"repro/internal/txn"
	"repro/internal/workload"
)

// allSchedulers enumerates every runtime protocol under test.
func allSchedulers() map[string]func(*storage.Store) sched.Scheduler {
	return map[string]func(*storage.Store) sched.Scheduler{
		"MT(3)": func(st *storage.Store) sched.Scheduler {
			return sched.NewMT(st, sched.MTOptions{Core: engine.Options{K: 3, StarvationAvoidance: true}})
		},
		"MT(3)/deferred": func(st *storage.Store) sched.Scheduler {
			return sched.NewMT(st, sched.MTOptions{
				Core: engine.Options{K: 3, StarvationAvoidance: true}, DeferWrites: true})
		},
		"MT(3+)": func(st *storage.Store) sched.Scheduler {
			return sched.NewComposite(st, 3, engine.Options{StarvationAvoidance: true})
		},
		"2PL":      func(st *storage.Store) sched.Scheduler { return lock.NewTwoPL(st) },
		"TO(1)":    func(st *storage.Store) sched.Scheduler { return tsto.New(st, tsto.Options{}) },
		"OCC":      func(st *storage.Store) sched.Scheduler { return occ.New(st) },
		"SGT":      func(st *storage.Store) sched.Scheduler { return sgt.New(st) },
		"Interval": func(st *storage.Store) sched.Scheduler { return interval.New(st, interval.Options{}) },
	}
}

// The banking invariant: concurrent transfers conserve the total balance
// under every serializable protocol in the suite.
func TestBankingInvariantAllSchedulers(t *testing.T) {
	accounts := []string{"a0", "a1", "a2", "a3", "a4"}
	initial := map[string]int64{}
	for _, a := range accounts {
		initial[a] = 1000
	}
	for name, mk := range allSchedulers() {
		t.Run(name, func(t *testing.T) {
			rep := Run(Config{
				NewScheduler: mk,
				Specs:        workload.Transfers(60, accounts, 7, 42),
				Workers:      6,
				Backoff:      50 * time.Microsecond,
				Initial:      initial,
			})
			if rep.Committed != 60 {
				t.Fatalf("committed = %d, want 60 (gave up %d)", rep.Committed, rep.GaveUp)
			}
			if got := rep.Store.Sum(accounts); got != 5000 {
				t.Fatalf("total balance = %d, want 5000", got)
			}
		})
	}
}

func TestReportMath(t *testing.T) {
	rep := Run(Config{
		NewScheduler: func(st *storage.Store) sched.Scheduler {
			// Note: no starvation fix here, so retries must be bounded —
			// unbounded retry can loop forever on the Fig. 5 pattern.
			return sched.NewMT(st, sched.MTOptions{Core: engine.Options{K: 2}})
		},
		Specs:       workload.Config{Txns: 20, OpsPerTxn: 2, Items: 50, ReadFraction: 0.5, Seed: 1}.Generate(),
		Workers:     4,
		MaxAttempts: 50,
	})
	if rep.Txns != 20 {
		t.Fatalf("Txns = %d", rep.Txns)
	}
	if rep.Committed+rep.GaveUp != 20 {
		t.Fatalf("committed %d + gaveup %d != 20", rep.Committed, rep.GaveUp)
	}
	if rep.Throughput() <= 0 {
		t.Fatal("non-positive throughput")
	}
	if rep.AbortRate() < 0 || rep.AbortRate() > 1 {
		t.Fatalf("abort rate = %f", rep.AbortRate())
	}
	if rep.String() == "" {
		t.Fatal("empty String")
	}
	if rep.Latency.Count() != 20 {
		t.Fatalf("latency samples = %d", rep.Latency.Count())
	}
}

func TestMaxAttemptsPropagates(t *testing.T) {
	// Extremely contended single item with 1 max attempt: some
	// transactions may give up; totals must still add up.
	rep := Run(Config{
		NewScheduler: func(st *storage.Store) sched.Scheduler {
			return tsto.New(st, tsto.Options{})
		},
		Specs:       workload.Config{Txns: 50, OpsPerTxn: 3, Items: 1, ReadFraction: 0.5, Seed: 2}.Generate(),
		Workers:     8,
		MaxAttempts: 1,
	})
	if rep.Committed+rep.GaveUp != 50 {
		t.Fatalf("committed %d + gaveup %d != 50", rep.Committed, rep.GaveUp)
	}
}

// Under high contention the MT(k) scheduler with the starvation fix makes
// progress on every transaction (no give-ups even with bounded retries).
func TestMTProgressUnderContention(t *testing.T) {
	rep := Run(Config{
		NewScheduler: func(st *storage.Store) sched.Scheduler {
			return sched.NewMT(st, sched.MTOptions{
				Core: engine.Options{K: 3, StarvationAvoidance: true}})
		},
		Specs:       workload.Config{Txns: 80, OpsPerTxn: 3, Items: 4, ReadFraction: 0.6, Seed: 5}.Generate(),
		Workers:     8,
		MaxAttempts: 200,
		Backoff:     20 * time.Microsecond,
	})
	if rep.GaveUp != 0 {
		t.Fatalf("%d transactions starved", rep.GaveUp)
	}
}

// A single worker serializes everything, and no protocol aborts in a
// serial execution. For MT(k), k >= 2, that needs the starvation fix's
// raise in place: the literal TS(i,m) := TS(j,m)+1 encoding of Algorithm
// 1 can assign a transaction a small element from a shallow conflict
// chain and later meet a deeper chain's larger element — an established
// Greater even in a serial run. (A monotonic clock would avoid this but
// would destroy the paper's Example 1, where T2 and T3 must receive
// EQUAL elements.) In a serial run nothing is ever ordered after the
// running transaction, so every such step is raised instead of
// rejected. MT(1) and the composite MT(k⁺) are immune anyway because the
// k-th/counter column is globally monotonic.
func TestSerialExecutionNeverAborts(t *testing.T) {
	schedulers := allSchedulers()
	for name, deferred := range map[string]bool{"MT(7)/striped": false, "MT(7)/striped/deferred": true} {
		schedulers[name] = func(st *storage.Store) sched.Scheduler {
			return sched.NewMTStriped(st, sched.MTOptions{
				Core: engine.Options{K: 7, StarvationAvoidance: true}, DeferWrites: deferred})
		}
	}
	for name, mk := range schedulers {
		t.Run(name, func(t *testing.T) {
			rep := Run(Config{
				NewScheduler: mk,
				Specs:        workload.Config{Txns: 30, OpsPerTxn: 4, Items: 5, ReadFraction: 0.5, Seed: 3}.Generate(),
				Workers:      1,
			})
			if rep.Restarts != 0 {
				t.Fatalf("serial run restarted %d times", rep.Restarts)
			}
			if rep.Committed != 30 {
				t.Fatalf("committed = %d", rep.Committed)
			}
		})
	}
}

// The serial-corner companion test: MT(1) never restarts a serial run
// (its single column is the globally monotonic counter column).
func TestMT1SerialNeverAborts(t *testing.T) {
	rep := Run(Config{
		NewScheduler: func(st *storage.Store) sched.Scheduler {
			return sched.NewMT(st, sched.MTOptions{Core: engine.Options{K: 1}})
		},
		Specs:   workload.Config{Txns: 50, OpsPerTxn: 4, Items: 5, ReadFraction: 0.5, Seed: 3}.Generate(),
		Workers: 1,
	})
	if rep.Restarts != 0 || rep.Committed != 50 {
		t.Fatalf("restarts=%d committed=%d", rep.Restarts, rep.Committed)
	}
}

func TestPoolResultOrdering(t *testing.T) {
	st := storage.New()
	rt := &txn.Runtime{Sched: sched.NewMT(st, sched.MTOptions{Core: engine.Options{K: 2}})}
	specs := []txn.Spec{{ID: 5, Ops: []txn.Op{txn.W("x")}}, {ID: 9, Ops: []txn.Op{txn.W("y")}}}
	res := rt.Pool(specs, 2)
	if res[0].ID != 5 || res[1].ID != 9 {
		t.Fatalf("result order: %d, %d", res[0].ID, res[1].ID)
	}
}
