package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/intern"
	"repro/internal/oplog"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The serial rows of the cost ledger: each layer driven alone, on one
// goroutine, over the workload's own spec pool, by timing calls into
// its exported functions. The layers below the adapter are measured in
// isolation; the adapter and the runtime as wholes (sched.serial,
// txn.serial). Adapter self time is the adapter whole minus the
// isolated rows it calls; runtime self time comes from spans of a
// traced serial pass. ledger.unattributed_frac then compares
// sched.serial + runtime self, two different kinds of measurement, with
// the independently timed txn.serial.
//
// The passes run one after another over several seconds, so each is
// timed on the process CPU clock and divided by the host's slowdown
// around it, like the gated timings: on the wall clock the host's drift
// between two passes was as large as what the ledger is looking for.

// ledger measures the serial rows of one workload.
type ledger struct {
	def  *workloadDef
	seed int64
	tmp  string
	n    int // specs per row, from the start of the pool
	host *hostSpeed
	m    map[string]float64
}

// timed runs f and returns its process CPU time at reference speed.
func (l *ledger) timed(f func()) time.Duration {
	start := processCPU()
	f()
	used := processCPU() - start
	return time.Duration(float64(used) / l.host.around())
}

// best runs f several times and returns its smallest process CPU time,
// not yet normalised. The isolated rows are loops of tens of
// milliseconds, which a collection or a cold cache disturbs more than
// the host's speed does.
func best(f func()) time.Duration {
	var least time.Duration
	for rep := 0; rep < 5; rep++ {
		start := processCPU()
		f()
		if took := processCPU() - start; rep == 0 || took < least {
			least = took
		}
	}
	return least
}

// perTxn converts a pass's time to microseconds per transaction.
func (l *ledger) perTxn(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3 / float64(l.n)
}

// clockCost is the CPU cost of one time.Now, which matters to the one
// pass that reads the clock every few hundred nanoseconds.
func clockCost() time.Duration {
	const n = 200000
	start := processCPU()
	for i := 0; i < n; i++ {
		_ = time.Now()
	}
	return (processCPU() - start) / n
}

// serialStack builds the workload's stack for a one-goroutine pass:
// no log and no admission gate, which have rows of their own.
func (l *ledger) serialStack(o stackOpts) (*stack, error) {
	o.clients, o.noWAL, o.noAdmit = 1, true, true
	return build(l.def, l.seed, "", o)
}

// serialExec times n transactions through txn.Runtime.Exec on one
// goroutine.
func (l *ledger) serialExec(st *stack) (time.Duration, error) {
	c := &st.clients[0]
	var t tally
	took := l.timed(func() {
		for i := 0; i < l.n; i++ {
			t.observe(st.exec(st.next(c)), 0, 0)
		}
	})
	if t.failed() != 0 {
		return took, fmt.Errorf("serial pass on %s: %d of %d transactions failed", st.def.name, t.failed(), l.n)
	}
	return took, nil
}

// rows measures every serial row and stores them in l.m.
func (l *ledger) rows() error {
	txnSerial, txnSelf, err := l.runtimeRows()
	if err != nil {
		return err
	}
	st, err := l.serialStack(stackOpts{})
	if err != nil {
		return err
	}
	schedSerial, issued, err := l.adapterRow(st)
	if err != nil {
		return err
	}
	lower, err := l.lowerRows(st, issued)
	if err != nil {
		return err
	}
	if err := l.admitRow(); err != nil {
		return err
	}
	if l.def.durable {
		if err := l.walAppendRow(); err != nil {
			return err
		}
	}
	l.m["sched.adapter_self_us_per_txn"] = schedSerial - lower
	l.m["ledger.unattributed_frac"] = 1 - (schedSerial+txnSelf)/txnSerial
	return nil
}

// runtimeRows times the runtime as a whole, again with a deadline, and
// once more traced for its self time (the exec span minus the sched.*
// spans: the runtime's own work plus its back-off sleeps). The spans
// are on the wall clock, so the traced pass gives only the runtime's
// share of its own total, which is then applied to the untraced time.
func (l *ledger) runtimeRows() (serial, self float64, err error) {
	pass := func(o stackOpts, tr *tracer) (float64, error) {
		st, err := l.serialStack(o)
		if err != nil {
			return 0, err
		}
		st.setTracer(tr)
		took, err := l.serialExec(st)
		return l.perTxn(took), err
	}
	if serial, err = pass(stackOpts{}, nil); err != nil {
		return 0, 0, err
	}
	withDeadline, err := pass(stackOpts{deadline: time.Second}, nil)
	if err != nil {
		return 0, 0, err
	}
	tr := newTracer(1)
	if _, err = pass(stackOpts{}, tr); err != nil {
		return 0, 0, err
	}
	spans := tr.totals()
	selfNs := spans.total[kExec]
	for _, k := range []kind{kBegin, kRead, kWrite, kCommit, kAbort} {
		selfNs -= spans.total[k]
	}
	self = serial * float64(selfNs) / float64(spans.total[kExec])
	l.m["txn.serial_us_per_txn"] = serial
	l.m["txn.deadline_us_per_txn"] = withDeadline - serial
	l.m["txn.serial_self_us_per_txn"] = self
	return serial, self, nil
}

// directCounts is what driving the adapter directly issued.
type directCounts struct {
	reads, writes int64
}

// driveDirect runs one spec against the adapter the way txn.Runtime's
// attempt loop does (Begin, the ops, Commit; Abort and retry with the
// same id on an error), without the runtime.
func driveDirect(s sched.Scheduler, spec txn.Spec, reads map[string]int64, n *directCounts) bool {
	for try := 0; try < 1000; try++ {
		clear(reads)
		s.Begin(spec.ID)
		ok := true
		for _, op := range spec.Ops {
			if op.Kind == oplog.Read {
				n.reads++
				v, err := s.Read(spec.ID, op.Item)
				if err != nil {
					ok = false
					break
				}
				reads[op.Item] = v
				continue
			}
			n.writes++
			v := int64(spec.ID)
			if spec.Value != nil {
				v = spec.Value(op.Item, reads)
			}
			if err := s.Write(spec.ID, op.Item, v); err != nil {
				ok = false
				break
			}
		}
		if ok && s.Commit(spec.ID) == nil {
			return true
		}
		s.Abort(spec.ID)
	}
	return false
}

// adapterRow times the adapter called directly, and counts what that
// issued, retried attempts included.
func (l *ledger) adapterRow(st *stack) (serial float64, issued directCounts, err error) {
	reads := make(map[string]int64, 8)
	stuck := 0
	took := l.timed(func() {
		for i := 0; i < l.n && stuck == 0; i++ {
			if !driveDirect(st.sched, st.specAt(&st.clients[0], i), reads, &issued) {
				stuck = i + 1
			}
		}
	})
	if stuck != 0 {
		return 0, issued, fmt.Errorf("direct pass on %s: transaction %d never committed", st.def.name, stuck)
	}
	serial = l.perTxn(took)
	l.m["sched.serial_us_per_txn"] = serial
	return serial, issued, nil
}

// idOp is one operation with its item interned beforehand (interning
// has its own row).
type idOp struct {
	id   int32
	read bool
}

func internOps(specs []txn.Spec, id func(string) int32) [][]idOp {
	ops := make([][]idOp, len(specs))
	for i, spec := range specs {
		ops[i] = make([]idOp, len(spec.Ops))
		for j, op := range spec.Ops {
			ops[i][j] = idOp{id(op.Item), op.Kind == oplog.Read}
		}
	}
	return ops
}

// lowerRows times the four layers below the adapter in isolation over
// the first n specs of the stack's pool, and returns what they come to
// per transaction, in microseconds, for the operations the adapter
// actually issued.
func (l *ledger) lowerRows(st *stack, issued directCounts) (float64, error) {
	pool, fn := st.pool[:l.n], float64(l.n)
	names := intern.New()
	ops := internOps(pool, names.ID)
	var nOps, nReads int64
	for _, tops := range ops {
		for _, op := range tops {
			nOps++
			if op.read {
				nReads++
			}
		}
	}
	internT := best(func() {
		for _, spec := range pool {
			for _, op := range spec.Ops {
				names.ID(op.Item)
			}
		}
	})

	// core: one stripe latched per operation, as Read and Write do, and
	// the write set's stripes per transaction, as Commit does.
	lt := core.NewLatchTable(engine.DefaultStripes)
	stripes := make([]int, 0, 8)
	latchT := best(func() {
		for _, tops := range ops {
			stripes = stripes[:0]
			for _, op := range tops {
				s := lt.StripeOfID(op.id)
				lt.LockStripe(s)
				lt.UnlockStripe(s)
				if i, found := slices.BinarySearch(stripes, s); !op.read && !found {
					stripes = slices.Insert(stripes, i, s)
				}
			}
			lt.LockStripesSorted(stripes)
			lt.UnlockStripesSorted(stripes)
		}
	})

	// engine: the protocol steps replayed on a bare striped engine, with
	// the adapter's abort-and-retry rule. The first replay is timed as a
	// whole; a second one reads the wall clock around every attempt, only
	// to split that time between the steps and the commit or abort that
	// ends an attempt.
	var steps, rejects int64
	var stepT, finishT time.Duration
	stuck := 0
	replay := func(split bool) {
		eng := engine.NewStripedInterned(engine.Options{K: vectorK, StarvationAvoidance: true}, names)
		steps, rejects = 0, 0
		for i, tops := range ops {
			id := i + 1
			for try := 0; ; try++ {
				if try == 1000 {
					stuck = id
					return
				}
				var t0, t1 time.Time
				if split {
					t0 = time.Now()
				}
				blocker, rejected := 0, false
				for _, op := range tops {
					steps++
					var v core.Verdict
					if op.read {
						v, blocker = eng.StepReadID(id, op.id)
					} else {
						v, blocker = eng.StepWriteID(id, op.id)
					}
					if v == core.Reject {
						rejected = true
						break
					}
				}
				if split {
					t1 = time.Now()
				}
				if rejected {
					rejects++
					eng.Abort(id, blocker)
				} else {
					eng.Commit(id)
				}
				if split {
					stepT += t1.Sub(t0)
					finishT += time.Since(t1)
				}
				if !rejected {
					break
				}
			}
		}
	}
	engineT := best(func() { replay(false) })
	replay(true)
	if stuck != 0 {
		return 0, fmt.Errorf("engine replay on %s: transaction %d never committed", st.def.name, stuck)
	}
	// Each interval holds one clock reading; take it out of both.
	attempts := int64(l.n) + rejects
	tick := time.Duration(attempts) * clockCost()
	stepShare := float64(stepT-tick) / float64(stepT+finishT-2*tick)

	// storage: reads by id, and each transaction's write set applied.
	store := storage.New()
	for _, x := range st.items {
		store.Set(x, 0)
	}
	sops := internOps(pool, store.IDOf)
	var sink int64
	getT := best(func() {
		for _, tops := range sops {
			for _, op := range tops {
				if op.read {
					sink += store.GetID(op.id)
				}
			}
		}
	})
	wids, wvals := make([]int32, 0, 8), make([]int64, 0, 8)
	applyT := best(func() {
		for i, tops := range sops {
			wids, wvals = wids[:0], wvals[:0]
			for _, op := range tops {
				if !op.read && !slices.Contains(wids, op.id) {
					wids, wvals = append(wids, op.id), append(wvals, sink)
				}
			}
			store.ApplyTxnIDs(i+1, wids, wvals)
		}
	})

	// One reading of the host's speed for the five loops together.
	slow := l.host.around()
	ns := func(d time.Duration, per int64) float64 {
		return float64(d.Nanoseconds()) / slow / float64(max(per, 1))
	}
	internNs, latchNs := ns(internT, nOps), ns(latchT, nOps)
	getNs, applyNs := ns(getT, nReads), ns(applyT, int64(l.n))
	engineNs := ns(engineT, int64(l.n))
	l.m["intern.id_ns_per_op"] = internNs
	l.m["core.latch_ns_per_op"] = latchNs
	l.m["engine.step_ns_per_op"] = engineNs * fn * stepShare / float64(steps)
	l.m["engine.commit_ns_per_txn"] = engineNs * (1 - stepShare)
	l.m["engine.serial_reject_frac"] = float64(rejects) / float64(steps)
	l.m["storage.get_ns_per_op"] = getNs
	l.m["storage.apply_ns_per_txn"] = applyNs

	perTxn := float64(issued.reads+issued.writes) / fn
	return (internNs*perTxn + latchNs*perTxn + getNs*float64(issued.reads)/fn + applyNs + engineNs) / 1e3, nil
}

// admitRow times the admission gate alone: one admission and one
// completion per transaction.
func (l *ledger) admitRow() error {
	var err error
	took := best(func() {
		ctrl := admit.NewController(admit.Options{})
		for i := 1; i <= l.n && err == nil; i++ {
			if err = ctrl.Admit(context.Background(), i); err == nil {
				ctrl.Done(i, true, 1, 25*time.Microsecond)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("serial admission: %w", err)
	}
	l.m["admit.gate_ns_per_txn"] = float64(took.Nanoseconds()) / l.host.around() / float64(l.n)
	return nil
}

// walAppendRow times journal plus wait per commit when nothing is
// synced: the log's own CPU and write cost, without the device. The
// two are spans, so this row alone is on the wall clock.
func (l *ledger) walAppendRow() error {
	st, err := build(l.def, l.seed, l.tmp, stackOpts{clients: 1, walSync: wal.SyncNone})
	if err != nil {
		return err
	}
	tr := newTracer(1)
	st.setTracer(tr)
	_, err = l.serialExec(st)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	w := tr.totals()
	l.m["wal.append_us_per_commit"] = float64(w.total[kJournal]+w.total[kWait]) / 1e3 / float64(l.n)
	return nil
}
