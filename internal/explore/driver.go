package explore

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/admit"
	"repro/internal/classify"
	"repro/internal/dmt"
	"repro/internal/engine"
	"repro/internal/explore/hook"
	"repro/internal/oplog"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/txn"
)

// TxnSpec is one transaction of an explore workload.
type TxnSpec struct {
	ID  int
	Ops []txn.Op
}

// Workload is a (tiny) transaction mix the explorer drives. Task i of
// the controller runs Txns[i]; retries reuse the transaction id, as the
// runtime does.
type Workload struct {
	Name       string
	Txns       []TxnSpec
	MaxRetries int // additional attempts after a conflict abort
}

// NamedWorkload returns a registry workload by name. These are the
// fixed vocabulary trace files reference, so a checked-in trace
// reconstructs its whole scenario from metadata.
func NamedWorkload(name string) (Workload, bool) {
	switch name {
	case "disjoint-2x2":
		// Two transactions on disjoint items: no conflicts, used by the
		// DFS exhaustiveness bound (every interleaving is conflict-free).
		return Workload{Name: name, Txns: []TxnSpec{
			{ID: 1, Ops: []txn.Op{txn.R("a"), txn.W("a")}},
			{ID: 2, Ops: []txn.Op{txn.R("b"), txn.W("b")}},
		}}, true
	case "conflict-2x2":
		// The classic write-skew shape: each reads the other's write
		// target.
		return Workload{Name: name, MaxRetries: 2, Txns: []TxnSpec{
			{ID: 1, Ops: []txn.Op{txn.R("a"), txn.W("b")}},
			{ID: 2, Ops: []txn.Op{txn.R("b"), txn.W("a")}},
		}}, true
	case "ww-2x1":
		// Two blind writers on one item — the publish-inversion shape.
		return Workload{Name: name, MaxRetries: 2, Txns: []TxnSpec{
			{ID: 1, Ops: []txn.Op{txn.W("x")}},
			{ID: 2, Ops: []txn.Op{txn.W("x")}},
		}}, true
	case "rw-2x1":
		// Reader racing a writer on one item.
		return Workload{Name: name, MaxRetries: 2, Txns: []TxnSpec{
			{ID: 1, Ops: []txn.Op{txn.R("x"), txn.W("x")}},
			{ID: 2, Ops: []txn.Op{txn.R("x"), txn.W("x")}},
		}}, true
	case "mix-3x2":
		// Three transactions over two items, reads and writes crossing.
		return Workload{Name: name, MaxRetries: 3, Txns: []TxnSpec{
			{ID: 1, Ops: []txn.Op{txn.R("a"), txn.W("b")}},
			{ID: 2, Ops: []txn.Op{txn.W("a"), txn.R("b")}},
			{ID: 3, Ops: []txn.Op{txn.R("a"), txn.W("a")}},
		}}, true
	case "mix-3x3":
		// Three transactions over three items (chain conflicts).
		return Workload{Name: name, MaxRetries: 3, Txns: []TxnSpec{
			{ID: 1, Ops: []txn.Op{txn.R("a"), txn.W("b")}},
			{ID: 2, Ops: []txn.Op{txn.R("b"), txn.W("c")}},
			{ID: 3, Ops: []txn.Op{txn.R("c"), txn.W("a")}},
		}}, true
	case "transfer-3x3":
		// Three transfers around a ring of accounts, each reading both
		// sides before writing them: the shape on which flagging only the
		// larger holder lets an in-place raise commit a cycle.
		return Workload{Name: name, MaxRetries: 3, Txns: []TxnSpec{
			{ID: 1, Ops: []txn.Op{txn.R("a"), txn.R("b"), txn.W("a"), txn.W("b")}},
			{ID: 2, Ops: []txn.Op{txn.R("b"), txn.R("c"), txn.W("b"), txn.W("c")}},
			{ID: 3, Ops: []txn.Op{txn.R("c"), txn.R("a"), txn.W("c"), txn.W("a")}},
		}}, true
	}
	return Workload{}, false
}

// WorkloadNames lists the registry (CLI help, campaign sweeps).
func WorkloadNames() []string {
	return []string{"disjoint-2x2", "conflict-2x2", "ww-2x1", "rw-2x1", "mix-3x2", "mix-3x3", "transfer-3x3"}
}

// Config selects and parameterizes the system under test.
type Config struct {
	// Family: mt | mt-striped | composite | dmt | nested.
	Family string
	// K is the vector size (default 2; composite subprotocol count).
	K int
	// Sites is the DMT cluster size (default 3).
	Sites int
	// Ks are the nested level sizes (default [2,2]).
	Ks []int
	// DeferWrites buffers writes to commit (mt / mt-striped).
	DeferWrites bool
	// StarvationAvoidance enables the III-D-4 reseed on abort and the
	// raise in place (mt / mt-striped).
	StarvationAvoidance bool
	// UnsafePublish injects the seeded publish-inversion bug
	// (mt-striped, deferred).
	UnsafePublish bool
	// UnsafeEagerReclaim injects the seeded pooled-entry eager-reclaim
	// bug (mt-striped): finished entries are recycled while still
	// pinned as an item's most-recent timestamp, so conflict tests that
	// land after the reclaim see an empty vector.
	UnsafeEagerReclaim bool
	// Initial seeds the store (applied identically to subject and
	// reference, in sorted item order).
	Initial map[string]int64
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 2
	}
	if c.Sites <= 0 {
		c.Sites = 3
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{2, 2}
	}
	return c
}

// build constructs the scheduler (+ its store). coarse selects the
// reference data path used by the parity replay.
func (c Config) build(coarse bool) (sched.Scheduler, *storage.Store) {
	c = c.withDefaults()
	store := storage.New()
	items := make([]string, 0, len(c.Initial))
	for x := range c.Initial {
		items = append(items, x)
	}
	sort.Strings(items)
	for _, x := range items {
		store.Set(x, c.Initial[x])
	}
	eopts := engine.Options{K: c.K, StarvationAvoidance: c.StarvationAvoidance}
	var s sched.Scheduler
	switch c.Family {
	case "mt":
		return sched.NewMT(store, sched.MTOptions{Core: eopts, DeferWrites: c.DeferWrites}), store
	case "mt-striped":
		m := sched.NewMTStriped(store, sched.MTOptions{Core: eopts, DeferWrites: c.DeferWrites})
		m.SetUnsafe(c.UnsafePublish, c.UnsafeEagerReclaim)
		s = m
	case "composite":
		s = sched.NewComposite(store, c.K, engine.Options{K: 2})
	case "dmt":
		s = sched.NewDMT(store, dmt.Options{K: c.K, Sites: c.Sites})
	case "nested":
		s = sched.NewNested(store, sched.NestedOptions{Ks: c.Ks})
	default:
		panic("explore: unknown family " + c.Family)
	}
	if coarse {
		return sched.Reference(s, store), store
	}
	return s, store
}

// preemptFor is the family's sound default preemption policy: coarse
// MT holds one global mutex across protocol and store access, so only
// operation boundaries may park; the striped families also park at
// latch acquisitions and runtime restarts.
func (c Config) preemptFor() func(string) bool {
	if c.Family == "mt" {
		return PreemptOps
	}
	return DefaultPreempt
}

// record kinds of the driver's effect log.
type recKind int

const (
	recBegin recKind = iota
	recRead
	recWrite
	recCommit
	recAbort
)

// record is one driver-level operation outcome, stamped with its
// linearization point (the global order position of its first protocol
// event, or its completion when it had none).
type record struct {
	seq     int
	stamp   int
	kind    recKind
	txn     int
	attempt int
	item    string
	val     int64
	failed  bool
	blocker int
	reason  string
}

// Oracles selects which checks judge each execution. The zero value
// enables the standard three; ZeroExpress is opt-in (livelock
// campaigns).
type Oracles struct {
	NoParity     bool // skip coarse-reference replay parity
	NoDSR        bool // skip the committed-history DSR check
	NoUnique     bool // skip k-th-column uniqueness
	ZeroExpress  bool // fail on a zero backoff scale (express-lane livelock)
	AllowAborts  bool // unused reserve; aborts are always legal outcomes
	AllowedFails int  // unused reserve
}

// Failure describes one failed execution, with everything needed to
// reproduce it: the directives, and (from the campaign) the metadata.
type Failure struct {
	Oracle string
	Detail string
	Exec   *Execution
	Dirs   []Directive
	Seed   int64 // PCT per-execution seed, when applicable
}

func (f *Failure) Error() string {
	return fmt.Sprintf("%s: %s", f.Oracle, f.Detail)
}

// CampaignOptions configures RunCampaign.
type CampaignOptions struct {
	Config   Config
	Workload Workload
	Strategy Strategy
	// Preempt overrides the family default policy.
	Preempt func(string) bool
	// Runtime drives transactions through txn.Runtime (retry loop,
	// backoff, admission control) instead of calling the scheduler
	// directly; parity and DSR oracles are disabled in this mode (the
	// runtime's think/backoff machinery is outside the effect log).
	Runtime *RuntimeMode
	Oracles Oracles
	// MaxFailures stops the campaign after this many failing
	// executions (default 1).
	MaxFailures int
	MaxSteps    int
	Watchdog    time.Duration
}

// RuntimeMode parameterizes Runtime-driven campaigns.
type RuntimeMode struct {
	// MaxAttempts per transaction (conflict budget).
	MaxAttempts int
	// Backoff base for retry sleeps (keep tiny: sleeps hold the run
	// token).
	Backoff time.Duration
	// Aging wires an admission controller with these aging options
	// (limiter left at defaults, elder threshold raised so the crisis
	// gate stays open — its channel waits are uninstrumented).
	Aging *admit.AgingOptions
}

// CampaignResult summarizes a campaign.
type CampaignResult struct {
	Executions int
	Distinct   int
	Failures   []*Failure
	Exhausted  bool
	Elapsed    time.Duration
	Statuses   map[Status]int
}

// RunCampaign drives the strategy to exhaustion or budget, judging
// every execution with the configured oracles.
func RunCampaign(o CampaignOptions) *CampaignResult {
	if o.MaxFailures <= 0 {
		o.MaxFailures = 1
	}
	start := time.Now()
	res := &CampaignResult{Statuses: make(map[Status]int)}
	seen := make(map[string]bool)
	for o.Strategy.Begin(len(o.Workload.Txns)) {
		ex, recs, subject := runOnce(o)
		o.Strategy.End(ex)
		res.Executions++
		res.Statuses[ex.Status]++
		seen[scheduleKey(ex)] = true
		if f := judge(o, ex, recs, subject); f != nil {
			if p, ok := o.Strategy.(*PCT); ok {
				f.Seed = p.LastSeed
			}
			res.Failures = append(res.Failures, f)
			if len(res.Failures) >= o.MaxFailures {
				break
			}
		}
	}
	if d, ok := o.Strategy.(*DFS); ok {
		res.Exhausted = d.Exhausted()
		if d.Err != nil {
			res.Failures = append(res.Failures, &Failure{Oracle: "determinism", Detail: d.Err.Error()})
		}
	}
	res.Distinct = len(seen)
	res.Elapsed = time.Since(start)
	return res
}

// ReplayTrace runs the single execution a trace describes and judges
// it; o.Strategy is ignored. Returns the execution, its failure (nil
// when every oracle passed) and whether the replay diverged from the
// trace's directives.
func ReplayTrace(o CampaignOptions, tr *Trace) (*Execution, *Failure, bool) {
	r := &Replay{Trace: tr}
	o.Strategy = r
	if !r.Begin(len(o.Workload.Txns)) {
		panic("explore: replay strategy refused to begin")
	}
	ex, recs, subject := runOnce(o)
	r.End(ex)
	f := judge(o, ex, recs, subject)
	return ex, f, r.Diverged
}

// subjectState is what the oracles need from a finished execution.
type subjectState struct {
	sched sched.Scheduler
	store *storage.Store
}

// runOnce executes the workload once under a fresh system and
// controller.
func runOnce(o CampaignOptions) (*Execution, []record, *subjectState) {
	subject, store := o.Config.build(false)
	preempt := o.Preempt
	if preempt == nil {
		preempt = o.Config.preemptFor()
	}
	ctl := New(Options{
		Strategy: strategyShim{o.Strategy},
		Preempt:  preempt,
		MaxSteps: o.MaxSteps,
		Watchdog: o.Watchdog,
	})
	d := &driver{ctl: ctl, subject: subject}
	if o.Runtime != nil {
		d.setupRuntime(o, subject)
	} else {
		for _, spec := range o.Workload.Txns {
			spec := spec
			ctl.Go(fmt.Sprintf("txn%d", spec.ID), func() { d.runTxn(spec, o.Workload.MaxRetries) })
		}
	}
	ex := ctl.Run()
	return ex, d.recs, &subjectState{sched: subject, store: store}
}

// strategyShim adapts a campaign Strategy to the controller's Pick
// calls (Begin/End are driven by the campaign loop).
type strategyShim struct{ s Strategy }

func (sh strategyShim) Begin(n int) bool                         { return true }
func (sh strategyShim) Pick(step int, cands []int, last int) int { return sh.s.Pick(step, cands, last) }
func (sh strategyShim) End(ex *Execution)                        {}

// driver runs workload transactions against the subject scheduler,
// recording every operation outcome with its linearization stamp. The
// records slice is only ever appended by the task holding the run
// token, so the token's channel handoffs order the appends.
type driver struct {
	ctl     *Controller
	subject sched.Scheduler
	recs    []record
}

func (d *driver) rec(k recKind, txnID, attempt int, item string, val int64, err error) {
	r := record{
		seq:     len(d.recs),
		stamp:   d.ctl.EndOp(),
		kind:    k,
		txn:     txnID,
		attempt: attempt,
		item:    item,
		val:     val,
	}
	if err != nil {
		r.failed = true
		var ae *sched.AbortError
		if errors.As(err, &ae) {
			r.blocker = ae.Blocker
			r.reason = ae.Reason
		}
	}
	d.recs = append(d.recs, r)
}

// writeValue is the deterministic value written by op i of attempt a of
// txn id — schedules replay bit-identically because values depend only
// on the schedule-determined (id, attempt, op) triple.
func writeValue(id, attempt, i int) int64 {
	return int64(id)*1_000_000 + int64(attempt)*1_000 + int64(i)
}

// runTxn executes one transaction with retries, mirroring the
// runtime's shape (abort on failure, retry under the same id).
func (d *driver) runTxn(spec TxnSpec, maxRetries int) {
	for attempt := 0; ; attempt++ {
		d.ctl.BeginOp()
		d.subject.Begin(spec.ID)
		d.rec(recBegin, spec.ID, attempt, "", 0, nil)
		failed := false
		for i, op := range spec.Ops {
			hook.Yield("driver.op", op.Item, int64(spec.ID), int64(i))
			d.ctl.BeginOp()
			if op.Kind == oplog.Read {
				v, err := d.subject.Read(spec.ID, op.Item)
				d.rec(recRead, spec.ID, attempt, op.Item, v, err)
				if err != nil {
					failed = true
					break
				}
			} else {
				v := writeValue(spec.ID, attempt, i)
				err := d.subject.Write(spec.ID, op.Item, v)
				d.rec(recWrite, spec.ID, attempt, op.Item, v, err)
				if err != nil {
					failed = true
					break
				}
			}
		}
		if !failed {
			hook.Yield("driver.op", "commit", int64(spec.ID), int64(len(spec.Ops)))
			d.ctl.BeginOp()
			err := d.subject.Commit(spec.ID)
			d.rec(recCommit, spec.ID, attempt, "", 0, err)
			if err == nil {
				return
			}
		}
		d.ctl.BeginOp()
		d.subject.Abort(spec.ID)
		d.rec(recAbort, spec.ID, attempt, "", 0, nil)
		if attempt >= maxRetries {
			return
		}
	}
}

// setupRuntime registers tasks that drive transactions through
// txn.Runtime (livelock campaigns: the backoff-scale decision is the
// behavior under test).
func (d *driver) setupRuntime(o CampaignOptions, subject sched.Scheduler) {
	rm := o.Runtime
	rt := &txn.Runtime{
		Sched:       subject,
		MaxAttempts: rm.MaxAttempts,
		Backoff:     rm.Backoff,
	}
	if rm.Aging != nil {
		a := *rm.Aging
		if a.ElderAfter == 0 {
			// Keep the crisis gate open: its channel waits are not
			// instrumented, so an elder promotion would park a task
			// outside the controller.
			a.ElderAfter = 1 << 20
		}
		rt.Admit = admit.NewController(admit.Options{Aging: a})
	}
	for _, spec := range o.Workload.Txns {
		spec := spec
		ctl := d.ctl
		ctl.Go(fmt.Sprintf("txn%d", spec.ID), func() {
			hook.Yield("driver.op", "exec", int64(spec.ID), 0)
			rt.Exec(txn.Spec{ID: spec.ID, Ops: spec.Ops})
		})
	}
}

// judge runs the configured oracles over one execution. The first
// failing oracle wins (they are ordered from most to least direct).
func judge(o CampaignOptions, ex *Execution, recs []record, sub *subjectState) *Failure {
	fail := func(oracle, detail string) *Failure {
		return &Failure{Oracle: oracle, Detail: detail, Exec: ex, Dirs: DirectivesFrom(ex)}
	}
	switch ex.Status {
	case StatusPanic:
		return fail("panic", fmt.Sprintf("task %s panicked: %v", ex.PanicOn, ex.PanicVal))
	case StatusDeadlock:
		return fail("deadlock", fmt.Sprintf("blocked tasks: %s", strings.Join(ex.Blocked, ", ")))
	case StatusWatchdog:
		return fail("watchdog", "a task neither yielded nor finished within the watchdog interval")
	case StatusStepLimit:
		return fail("step-limit", fmt.Sprintf("schedule exceeded %d steps", len(ex.Choices)))
	}
	if o.Oracles.ZeroExpress {
		for _, ev := range ex.Events {
			if ev.Site == "txn.backoff" && ev.B == 0 {
				return fail("zero-express", fmt.Sprintf("txn %d retried with a zero backoff scale (stamp %d): the express lane hot-loops", ev.A, ev.Stamp))
			}
		}
	}
	if !o.Oracles.NoUnique {
		if detail := checkUnique(ex.Events); detail != "" {
			return fail("kth-column-uniqueness", detail)
		}
	}
	if o.Runtime == nil && !o.Oracles.NoDSR {
		if detail := checkDSR(recs); detail != "" {
			return fail("dsr", detail)
		}
	}
	if o.Runtime == nil && !o.Oracles.NoParity {
		if detail := checkParity(o.Config, recs, sub); detail != "" {
			return fail("parity", detail)
		}
	}
	return nil
}

// checkUnique verifies no column allocator handed out the same upper
// (or lower) value twice within the execution.
func checkUnique(events []Event) string {
	type key struct {
		aid int64
		val int64
	}
	seenU := make(map[key]bool)
	seenL := make(map[key]bool)
	for _, ev := range events {
		switch ev.Site {
		case "alloc.upper":
			k := key{ev.B, ev.A}
			if seenU[k] {
				return fmt.Sprintf("upper value %d allocated twice by allocator %d", ev.A, ev.B)
			}
			seenU[k] = true
		case "alloc.lower":
			k := key{ev.B, ev.A}
			if seenL[k] {
				return fmt.Sprintf("lower value %d allocated twice by allocator %d", ev.A, ev.B)
			}
			seenL[k] = true
		}
	}
	return ""
}

// committedLog builds the committed-effect oplog from the records:
// reads at their linearization stamps, writes at their commit's stamp
// in first-write order, aborted incarnations dropped — the same
// semantics as history.Recorder.
func committedLog(recs []record) *oplog.Log {
	type entry struct {
		stamp int
		seq   int
		op    oplog.Op
	}
	var out []entry
	type pendTxn struct {
		reads  []entry
		writes []string
		wseen  map[string]bool
	}
	pend := make(map[int]*pendTxn)
	for _, r := range recs {
		switch r.kind {
		case recBegin:
			pend[r.txn] = &pendTxn{wseen: make(map[string]bool)}
		case recRead:
			if p := pend[r.txn]; p != nil && !r.failed {
				p.reads = append(p.reads, entry{r.stamp, r.seq, oplog.R(r.txn, r.item)})
			}
		case recWrite:
			if p := pend[r.txn]; p != nil && !r.failed && !p.wseen[r.item] {
				p.wseen[r.item] = true
				p.writes = append(p.writes, r.item)
			}
		case recCommit:
			if p := pend[r.txn]; p != nil && !r.failed {
				out = append(out, p.reads...)
				for i, x := range p.writes {
					out = append(out, entry{r.stamp, r.seq*1000 + i, oplog.W(r.txn, x)})
				}
				delete(pend, r.txn)
			}
		case recAbort:
			delete(pend, r.txn)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].stamp != out[j].stamp {
			return out[i].stamp < out[j].stamp
		}
		return out[i].seq < out[j].seq
	})
	ops := make([]oplog.Op, len(out))
	for i, e := range out {
		ops[i] = e.op
	}
	return &oplog.Log{Ops: ops}
}

// checkDSR verifies the committed history is D-serializable.
func checkDSR(recs []record) string {
	log := committedLog(recs)
	if len(log.Ops) == 0 {
		return ""
	}
	if !classify.DSR(log) {
		return fmt.Sprintf("committed history not DSR: %s", log)
	}
	return ""
}

// checkParity replays the records in linearization-stamp order through
// a fresh coarse reference build of the same configuration and compares
// every outcome, then the final stores and counter watermarks. This is
// the equiv_test differential oracle generalized to arbitrary explored
// schedules: the stamp order is the subject's own decision order, so a
// correct subject must agree with the serial reference decision for
// decision.
func checkParity(cfg Config, recs []record, sub *subjectState) string {
	ref, refStore := cfg.build(true)
	ordered := append([]record(nil), recs...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].stamp != ordered[j].stamp {
			return ordered[i].stamp < ordered[j].stamp
		}
		return ordered[i].seq < ordered[j].seq
	})
	for _, r := range ordered {
		switch r.kind {
		case recBegin:
			ref.Begin(r.txn)
		case recRead:
			v, err := ref.Read(r.txn, r.item)
			if d := outcomeDiff(r, v, err, true); d != "" {
				return d
			}
		case recWrite:
			err := ref.Write(r.txn, r.item, r.val)
			if d := outcomeDiff(r, 0, err, false); d != "" {
				return d
			}
		case recCommit:
			err := ref.Commit(r.txn)
			if d := outcomeDiff(r, 0, err, false); d != "" {
				return d
			}
		case recAbort:
			ref.Abort(r.txn)
		}
	}
	if d := storeDiff(sub.store.State(), refStore.State()); d != "" {
		return d
	}
	type durable interface{ WALCounters() (int64, int64) }
	ds, okS := sub.sched.(durable)
	dr, okR := ref.(durable)
	if okS && okR {
		sl, sh := ds.WALCounters()
		rl, rh := dr.WALCounters()
		if sl != rl || sh != rh {
			return fmt.Sprintf("counter watermark divergence: subject (%d,%d), reference (%d,%d)", sl, sh, rl, rh)
		}
	}
	return ""
}

// outcomeDiff compares one replayed reference outcome against the
// subject's record.
func outcomeDiff(r record, v int64, err error, isRead bool) string {
	name := [...]string{"begin", "read", "write", "commit", "abort"}[r.kind]
	if (err != nil) != r.failed {
		return fmt.Sprintf("%s(%d,%q) outcome divergence: subject failed=%v, reference err=%v", name, r.txn, r.item, r.failed, err)
	}
	if err != nil {
		var ae *sched.AbortError
		if errors.As(err, &ae) {
			if ae.Blocker != r.blocker || ae.Reason != r.reason {
				return fmt.Sprintf("%s(%d,%q) abort divergence: subject blocker=%d reason=%q, reference blocker=%d reason=%q",
					name, r.txn, r.item, r.blocker, r.reason, ae.Blocker, ae.Reason)
			}
		}
		return ""
	}
	if isRead && v != r.val {
		return fmt.Sprintf("read(%d,%q) value divergence: subject %d, reference %d", r.txn, r.item, r.val, v)
	}
	return ""
}

// storeDiff compares two committed states.
func storeDiff(a, b storage.State) string {
	if a.Version != b.Version {
		return fmt.Sprintf("store version divergence: subject %d, reference %d", a.Version, b.Version)
	}
	if d := mapDiff("value", a.Data, b.Data); d != "" {
		return d
	}
	return mapDiff("item version", a.ItemVers, b.ItemVers)
}

func mapDiff(what string, a, b map[string]int64) string {
	for x, v := range a {
		if bv, ok := b[x]; !ok || bv != v {
			return fmt.Sprintf("store %s divergence at %q: subject %d, reference %d (present=%v)", what, x, v, bv, ok)
		}
	}
	for x, v := range b {
		if _, ok := a[x]; !ok {
			return fmt.Sprintf("store %s divergence at %q: reference %d, subject missing", what, x, v)
		}
	}
	return ""
}

// scheduleKey fingerprints a schedule for distinct-interleaving
// counting.
func scheduleKey(ex *Execution) string {
	var b strings.Builder
	for _, ch := range ex.Choices {
		b.WriteString(strconv.Itoa(ch.Task))
		b.WriteByte(',')
	}
	return b.String()
}

// TraceFor packages a failure as a replayable trace with the campaign
// metadata needed to rebuild the scenario.
func TraceFor(o CampaignOptions, f *Failure) *Trace {
	cfg := o.Config.withDefaults()
	meta := map[string]string{
		"family":   cfg.Family,
		"workload": o.Workload.Name,
		"k":        strconv.Itoa(cfg.K),
		"oracle":   f.Oracle,
	}
	if cfg.Family == "dmt" {
		meta["sites"] = strconv.Itoa(cfg.Sites)
	}
	if cfg.Family == "nested" {
		ks := make([]string, len(cfg.Ks))
		for i, k := range cfg.Ks {
			ks[i] = strconv.Itoa(k)
		}
		meta["ks"] = strings.Join(ks, ",")
	}
	if cfg.DeferWrites {
		meta["defer"] = "1"
	}
	if cfg.StarvationAvoidance {
		meta["starvation"] = "1"
	}
	if cfg.UnsafePublish {
		meta["unsafe-publish"] = "1"
	}
	if cfg.UnsafeEagerReclaim {
		meta["unsafe-eager-reclaim"] = "1"
	}
	if o.Runtime != nil {
		meta["runtime"] = "1"
		meta["max-attempts"] = strconv.Itoa(o.Runtime.MaxAttempts)
		if o.Runtime.Aging != nil && o.Runtime.Aging.UnsafeZeroExpress {
			meta["unsafe-zero-express"] = "1"
		}
	}
	if f.Seed != 0 {
		meta["seed"] = strconv.FormatInt(f.Seed, 10)
	}
	return NewTrace(meta, f.Dirs)
}

// OptionsFromTrace rebuilds campaign options from a trace's metadata
// (the strategy is supplied by ReplayTrace). The unsafe injection flags
// are honored only when inject is true, so a regression test can assert
// both "bug trace fails with the bug present" and "same schedule passes
// on the fixed code".
func OptionsFromTrace(tr *Trace, inject bool) (CampaignOptions, error) {
	var o CampaignOptions
	w, ok := NamedWorkload(tr.Get("workload"))
	if !ok {
		return o, fmt.Errorf("explore: trace references unknown workload %q", tr.Get("workload"))
	}
	o.Workload = w
	o.Config.Family = tr.Get("family")
	if o.Config.Family == "" {
		return o, fmt.Errorf("explore: trace missing family")
	}
	if k := tr.Get("k"); k != "" {
		o.Config.K, _ = strconv.Atoi(k)
	}
	if s := tr.Get("sites"); s != "" {
		o.Config.Sites, _ = strconv.Atoi(s)
	}
	if ks := tr.Get("ks"); ks != "" {
		for _, p := range strings.Split(ks, ",") {
			v, _ := strconv.Atoi(p)
			o.Config.Ks = append(o.Config.Ks, v)
		}
	}
	o.Config.DeferWrites = tr.Get("defer") == "1"
	o.Config.StarvationAvoidance = tr.Get("starvation") == "1"
	o.Config.UnsafePublish = inject && tr.Get("unsafe-publish") == "1"
	o.Config.UnsafeEagerReclaim = inject && tr.Get("unsafe-eager-reclaim") == "1"
	if tr.Get("runtime") == "1" {
		ma, _ := strconv.Atoi(tr.Get("max-attempts"))
		if ma <= 0 {
			ma = 4
		}
		o.Runtime = &RuntimeMode{
			MaxAttempts: ma,
			Backoff:     time.Nanosecond,
			Aging:       &admit.AgingOptions{UnsafeZeroExpress: inject && tr.Get("unsafe-zero-express") == "1"},
		}
		o.Oracles.ZeroExpress = true
	}
	return o, nil
}
