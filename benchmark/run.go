package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/sched"
	"repro/internal/wal"
)

// metricDef names one metric; BENCHMARK.json lists the same names.
type metricDef struct {
	name, unit string
	higher     bool    // better when higher
	bound      float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd is what gates later changes, the same on every workload.
// Every one of them is a count or is timed on the process CPU clock:
// the sandbox's host takes the processor away for milliseconds at a
// time, at a rate that changes from minute to minute, and wall-clock
// throughput and latency follow it (they are in perLayer, ungated).
var endToEnd = []metricDef{
	{"cpu_us_per_txn", "us", false, 0.25},
	{"attempts_per_commit", "count", false, 0.02},
	{"allocs_per_txn", "count", false, 0.02},
	{"alloc_bytes_per_txn", "B", false, 0.02},
	{"setup_s", "s", false, 0.25},
}

// perLayer is the traced run's ledger. A layer that is not in a
// workload's stack reports 0.
var perLayer = []metricDef{
	{name: "goodput_tps", unit: "1/s", higher: true},
	{name: "lat_p50_us", unit: "us"},
	{name: "lat_p95_us", unit: "us"},
	{name: "lat_p99_us", unit: "us"},
	{name: "setup_wall_s", unit: "s"},
	{name: "txn.exec_us_per_txn", unit: "us"},
	{name: "txn.self_us_per_txn", unit: "us"},
	{name: "txn.backoff_us_per_txn", unit: "us"},
	{name: "txn.serial_us_per_txn", unit: "us"},
	{name: "txn.serial_self_us_per_txn", unit: "us"},
	{name: "txn.deadline_us_per_txn", unit: "us"},
	{name: "admit.gate_ns_per_txn", unit: "ns"},
	{name: "admit.shed_frac", unit: "frac"},
	{name: "admit.limit_final", unit: "count", higher: true},
	{name: "admit.max_inflight", unit: "count"},
	{name: "sched.begin_us_per_txn", unit: "us"},
	{name: "sched.read_us_per_op", unit: "us"},
	{name: "sched.write_us_per_op", unit: "us"},
	{name: "sched.commit_us_per_txn", unit: "us"},
	{name: "sched.abort_us_per_abort", unit: "us"},
	{name: "sched.aborts_per_commit", unit: "count"},
	{name: "sched.abort_at_read_frac", unit: "frac"},
	{name: "sched.abort_at_write_frac", unit: "frac"},
	{name: "sched.abort_at_commit_frac", unit: "frac"},
	{name: "sched.serial_us_per_txn", unit: "us"},
	{name: "sched.adapter_self_us_per_txn", unit: "us"},
	{name: "engine.step_ns_per_op", unit: "ns"},
	{name: "engine.commit_ns_per_txn", unit: "ns"},
	{name: "engine.serial_reject_frac", unit: "frac"},
	{name: "engine.live_vectors_end", unit: "count"},
	{name: "core.latch_ns_per_op", unit: "ns"},
	{name: "intern.id_ns_per_op", unit: "ns"},
	{name: "storage.get_ns_per_op", unit: "ns"},
	{name: "storage.apply_ns_per_txn", unit: "ns"},
	{name: "wal.journal_us_per_commit", unit: "us"},
	{name: "wal.wait_us_per_commit", unit: "us"},
	{name: "wal.batch_records_mean", unit: "count", higher: true},
	{name: "wal.fsync_p50_us", unit: "us"},
	{name: "wal.syncs_per_commit", unit: "count"},
	{name: "wal.bytes_per_commit", unit: "B"},
	{name: "wal.checkpoints", unit: "count"},
	{name: "wal.append_us_per_commit", unit: "us"},
	{name: "wal.recover_s", unit: "s"},
	{name: "proc.cpu_us_per_txn", unit: "us"},
	{name: "host.slowdown", unit: "ratio"},
	{name: "proc.gc_cycles_per_ktxn", unit: "count"},
	{name: "proc.gc_pause_ms", unit: "ms"},
	{name: "proc.heap_retained_bytes_per_txn", unit: "B"},
	{name: "loadgen.start_lag_p95_us", unit: "us"},
	{name: "trace.overhead_frac", unit: "frac"},
	{name: "ledger.unattributed_frac", unit: "frac"},
}

// runConfig is one run of one workload.
type runConfig struct {
	def      *workloadDef
	seed     int64
	procs    int
	segments int
	segment  time.Duration
	setups   int // fresh set-ups timed; the last one is measured
	warmup   int
	trace    bool
	ledgerN  int    // specs per serial ledger row
	tmp      string // scratch directory for WAL directories
	traceDir string // where trace-<workload>.json goes
}

// runResult is what a run reports.
type runResult struct {
	Workload string
	Seed     int64
	Offered  int64 // transactions offered in the measured segments
	Failed   int64 // gave up + shed + deadline-missed + committed but not durable
	Metrics  map[string]float64
	// Wall holds the wall-clock numbers of an untraced run, printed for
	// the reader; the traced run reports them among its metrics.
	Wall     map[string]float64
	Problems []string // failed output checks
}

// hostSpeed keeps one reading of the host's slowdown between any two
// timed stretches of a run.
type hostSpeed struct{ readings []float64 }

func newHostSpeed() *hostSpeed { return &hostSpeed{readings: []float64{slowdown()}} }

// around takes the reading that follows a timed stretch and returns the
// mean of the two readings around it.
func (h *hostSpeed) around() float64 {
	h.readings = append(h.readings, slowdown())
	n := len(h.readings)
	return (h.readings[n-2] + h.readings[n-1]) / 2
}

// setUps makes cfg.setups fresh set-ups, one after another, and keeps
// the last. A set-up builds the stack and warms it with a fixed number
// of closed-loop transactions; cpu is what each cost in process CPU
// seconds at reference speed, wall in seconds.
func setUps(cfg runConfig, host *hostSpeed) (st *stack, warm phaseResult, cpu, wall []float64, err error) {
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, warm, nil, nil, err
			}
		}
		runtime.GC()
		start, before := time.Now(), processCPU()
		st, err = build(cfg.def, cfg.seed, cfg.tmp, stackOpts{clients: cfg.def.clientsFor(cfg.procs)})
		if err != nil {
			return nil, warm, nil, nil, err
		}
		warm = st.phase(0, int64(cfg.warmup))
		used := processCPU() - before
		wall = append(wall, time.Since(start).Seconds())
		cpu = append(cpu, used.Seconds()/host.around())
	}
	return st, warm, cpu, wall, nil
}

func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func segMedian(segs []phaseResult, f func(*phaseResult) float64) float64 {
	vals := make([]float64, len(segs))
	for i := range segs {
		vals[i] = f(&segs[i])
	}
	return median(vals)
}

func goodput(p *phaseResult) float64 { return float64(p.commits) / p.wall.Seconds() }

// latency returns the q-th percentile of a phase in microseconds.
func latency(q float64) func(*phaseResult) float64 {
	return func(p *phaseResult) float64 { return p.lat.percentile(q) / 1e3 }
}

func run(cfg runConfig) (res runResult, err error) {
	res = runResult{Workload: cfg.def.name, Seed: cfg.seed, Metrics: map[string]float64{}}
	m := res.Metrics
	host := newHostSpeed()

	st, warm, setupCPU, setupWall, err := setUps(cfg, host)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := st.close(); err == nil {
			err = cerr
		}
	}()
	heapStart := heapLive()
	walStart := walCounts(st)

	// Measured segments. In a traced run untraced and traced segments
	// alternate, so the two are compared under the same conditions.
	var plain, traced []phaseResult
	var tr *tracer
	if cfg.trace {
		tr = newTracer(len(st.clients))
	}
	for i := 0; i < cfg.segments; i++ {
		if cfg.trace && i%2 == 1 {
			st.setTracer(tr)
			traced = append(traced, st.phase(cfg.segment, 0))
			st.setTracer(nil)
			host.around()
		} else {
			p := st.phase(cfg.segment, 0)
			p.slow = host.around()
			plain = append(plain, p)
		}
	}
	heapEnd := heapLive()

	all := append(append([]phaseResult{warm}, plain...), traced...)
	total, withWarmup := sumPhases(all[1:]), sumPhases(all)
	res.Offered, res.Failed = total.offered, total.failed()
	offered := float64(total.offered)

	wall := map[string]float64{
		"goodput_tps":  segMedian(plain, goodput),
		"lat_p50_us":   segMedian(plain, latency(50)),
		"lat_p95_us":   segMedian(plain, latency(95)),
		"lat_p99_us":   segMedian(plain, latency(99)),
		"setup_wall_s": median(setupWall),
	}
	if !cfg.trace {
		res.Wall = wall
		m["cpu_us_per_txn"] = segMedian(plain, func(p *phaseResult) float64 { return p.cpuPerTxn() / p.slow })
		m["attempts_per_commit"] = float64(total.attempts) / float64(max(total.commits, 1))
		m["allocs_per_txn"] = float64(total.proc.mallocs) / offered
		m["alloc_bytes_per_txn"] = float64(total.proc.allocBytes) / offered
		m["setup_s"] = median(setupCPU)
	} else {
		for _, d := range perLayer {
			m[d.name] = 0
		}
		for name, v := range wall {
			m[name] = v
		}
		m["proc.cpu_us_per_txn"] = segMedian(plain, (*phaseResult).cpuPerTxn)
		m["host.slowdown"] = median(host.readings)
		m["proc.gc_cycles_per_ktxn"] = float64(total.proc.gcCycles) / offered * 1e3
		m["proc.gc_pause_ms"] = float64(total.proc.gcPause.Microseconds()) / 1e3
		m["proc.heap_retained_bytes_per_txn"] = (float64(heapEnd) - float64(heapStart)) / offered
		if cfg.def.rate > 0 {
			m["loadgen.start_lag_p95_us"] = total.lag.percentile(95) / 1e3
			m["trace.overhead_frac"] = 1 - segMedian(plain, latency(50))/segMedian(traced, latency(50))
		} else {
			m["trace.overhead_frac"] = 1 - segMedian(traced, goodput)/segMedian(plain, goodput)
		}
		spanMetrics(tr.totals(), m)
		if st.ctrl != nil {
			s := st.ctrl.Stats()
			m["admit.shed_frac"] = float64(s.Shed) / float64(withWarmup.offered)
			m["admit.limit_final"] = float64(s.Limit)
			m["admit.max_inflight"] = float64(s.MaxInFlight)
		}
		if mt, ok := st.sched.(*sched.MTStriped); ok {
			m["engine.live_vectors_end"] = float64(mt.Striped().LiveVectors())
		}
		if st.wal != nil {
			walMetrics(st, walStart, total.commits, m)
		}
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return res, err
		}
		if err := tr.writeFile(filepath.Join(cfg.traceDir, "trace-"+cfg.def.name+".json")); err != nil {
			return res, err
		}
	}

	res.Problems = st.check(all)
	if st.wal != nil {
		recoverS, problems := st.checkRecovery(withWarmup.commits)
		res.Problems = append(res.Problems, problems...)
		if cfg.trace {
			m["wal.recover_s"] = recoverS
		}
	}
	if cfg.trace {
		l := &ledger{def: cfg.def, seed: cfg.seed, tmp: cfg.tmp, n: cfg.ledgerN, host: host, m: m}
		if err := l.rows(); err != nil {
			return res, err
		}
	}
	return res, nil
}

func sumPhases(ps []phaseResult) *phaseResult {
	sum := &phaseResult{}
	for i := range ps {
		sum.add(&ps[i].tally)
		sum.wall += ps[i].wall
		sum.proc.mallocs += ps[i].proc.mallocs
		sum.proc.allocBytes += ps[i].proc.allocBytes
		sum.proc.gcCycles += ps[i].proc.gcCycles
		sum.proc.gcPause += ps[i].proc.gcPause
		sum.proc.cpu += ps[i].proc.cpu
	}
	return sum
}

// spanMetrics turns the traced segments' span totals into the txn,
// sched and wal rows.
func spanMetrics(s *recorder, m map[string]float64) {
	per := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / 1e3 / float64(n)
	}
	txns, commits := s.count[kExec], s.count[kCommit]-s.abortAt[kCommit]
	m["txn.exec_us_per_txn"] = per(s.total[kExec], txns)
	m["txn.self_us_per_txn"] = per(s.self(kExec), txns)
	m["txn.backoff_us_per_txn"] = per(s.total[kBackoff], txns)
	m["sched.begin_us_per_txn"] = per(s.total[kBegin], txns)
	m["sched.read_us_per_op"] = per(s.total[kRead], s.count[kRead])
	m["sched.write_us_per_op"] = per(s.total[kWrite], s.count[kWrite])
	m["sched.commit_us_per_txn"] = per(s.self(kCommit), txns)
	m["sched.abort_us_per_abort"] = per(s.total[kAbort], s.count[kAbort])
	m["wal.journal_us_per_commit"] = per(s.total[kJournal], commits)
	m["wal.wait_us_per_commit"] = per(s.total[kWait], commits)
	aborts := s.abortAt[kRead] + s.abortAt[kWrite] + s.abortAt[kCommit]
	if commits > 0 {
		m["sched.aborts_per_commit"] = float64(aborts) / float64(commits)
	}
	if aborts > 0 {
		m["sched.abort_at_read_frac"] = float64(s.abortAt[kRead]) / float64(aborts)
		m["sched.abort_at_write_frac"] = float64(s.abortAt[kWrite]) / float64(aborts)
		m["sched.abort_at_commit_frac"] = float64(s.abortAt[kCommit]) / float64(aborts)
	}
}

// walCounters are the log writer's own counters, read from outside.
type walCounters struct{ syncs, bytes, checkpoints int64 }

func walCounts(st *stack) walCounters {
	if st.wal == nil {
		return walCounters{}
	}
	s := st.wal.Stats()
	return walCounters{s.Syncs.Value(), s.Bytes.Value(), s.Checkpoints.Value()}
}

func walMetrics(st *stack, start walCounters, commits int64, m map[string]float64) {
	s, end := st.wal.Stats(), walCounts(st)
	m["wal.batch_records_mean"] = s.BatchRecords.Mean()
	m["wal.fsync_p50_us"] = float64(s.FsyncNs.Percentile(50)) / 1e3
	m["wal.syncs_per_commit"] = float64(end.syncs-start.syncs) / float64(commits)
	m["wal.bytes_per_commit"] = float64(end.bytes-start.bytes) / float64(commits)
	m["wal.checkpoints"] = float64(end.checkpoints - start.checkpoints)
}

// check verifies the run's outputs; it returns one line per failure.
func (st *stack) check(phases []phaseResult) []string {
	var bad []string
	for i := range phases {
		p := &phases[i]
		if p.commits+p.failed() != p.offered {
			bad = append(bad, fmt.Sprintf("phase %d: %d commits + %d failures != %d offered",
				i, p.commits, p.failed(), p.offered))
		}
	}
	if f := phases[0].failed(); f != 0 {
		bad = append(bad, fmt.Sprintf("%d transactions failed during warm-up", f))
	}
	if st.def.bank {
		want := int64(len(st.items)) * initialBalance
		if got := st.store.Sum(st.items); got != want {
			bad = append(bad, fmt.Sprintf("total balance %d, want %d", got, want))
		}
		return bad
	}
	// Uniform mix: a transaction writes its own id, so every item must
	// hold 0 (preloaded) or the id of an issued transaction whose spec
	// writes that item.
	issued := 0
	for i := range st.clients {
		issued += st.clients[i].seq
	}
	for item, v := range st.store.Snapshot() {
		if v == 0 {
			continue
		}
		id := int(v)
		c := &st.clients[(id-1)%len(st.clients)]
		if id < 1 || (id-1)/len(st.clients) >= c.seq || !writes(st.specOf(id), item) {
			bad = append(bad, fmt.Sprintf("item %s holds %d, which no issued transaction wrote there (%d issued)",
				item, v, issued))
		}
	}
	return bad
}

// checkRecovery closes the log, recovers its directory and requires
// the recovered store to equal the live one, keep the balance and
// contain every durably acknowledged commit. Each transfer writes two
// accounts, so every commit is one store version on top of the preload.
func (st *stack) checkRecovery(acked int64) (recoverS float64, bad []string) {
	if err := st.wal.Close(); err != nil {
		bad = append(bad, fmt.Sprintf("closing WAL: %v", err))
	}
	dir := st.walDir
	st.wal = nil
	defer os.RemoveAll(dir)
	start := time.Now()
	rec, err := wal.Recover(nil, dir)
	recoverS = time.Since(start).Seconds()
	if err != nil {
		return recoverS, append(bad, fmt.Sprintf("recovering WAL: %v", err))
	}
	live := st.store.State()
	if want := int64(len(st.items)) + acked; live.Version != want {
		bad = append(bad, fmt.Sprintf("live store at version %d, want %d (preload + acknowledged commits)", live.Version, want))
	}
	if rec.Store.Version != live.Version {
		bad = append(bad, fmt.Sprintf("recovered version %d, live version %d: an acknowledged commit is missing", rec.Store.Version, live.Version))
	}
	var sum int64
	for _, x := range st.items {
		sum += rec.Store.Data[x]
		if rec.Store.Data[x] != live.Data[x] || rec.Store.ItemVers[x] != live.ItemVers[x] {
			bad = append(bad, fmt.Sprintf("item %s recovered as %d (version %d), live %d (version %d)",
				x, rec.Store.Data[x], rec.Store.ItemVers[x], live.Data[x], live.ItemVers[x]))
		}
	}
	if len(rec.Store.Data) != len(live.Data) {
		bad = append(bad, fmt.Sprintf("recovered %d items, live %d", len(rec.Store.Data), len(live.Data)))
	}
	if want := int64(len(st.items)) * initialBalance; sum != want {
		bad = append(bad, fmt.Sprintf("recovered balance %d, want %d", sum, want))
	}
	return recoverS, bad
}
