package explore

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/explore/hook"
)

// Helpers for the pure-harness tests (no scheduler under test): they
// reuse the production hook seam, so these tests exercise exactly the
// code paths instrumented call sites go through.
func yieldHere()          { hook.Yield("driver.op", "", 0, 0) }
func newResource() uint64 { return hook.NewResourceRange(1) }
func acquireRes(res uint64, try func() bool) bool {
	return hook.TryAcquire(res, "latch.acquire", try)
}
func releaseRes(res uint64) { hook.Release(res) }

var (
	exploreBudget = flag.Int("explore.budget", 60, "PCT executions per (family, workload) combination")
	exploreRegen  = flag.Bool("explore.regen", false, "regenerate testdata traces by searching for the seeded bugs")
)

// pctCombos are the (config, workload) pairs the PCT sweep covers: every
// scheduler family, both write modes where the family distinguishes
// them, and MT(k) with the starvation fix's raise in place in both.
func pctCombos() []CampaignOptions {
	var out []CampaignOptions
	families := []Config{
		{Family: "mt"},
		{Family: "mt", DeferWrites: true},
		{Family: "mt-striped"},
		{Family: "mt-striped", DeferWrites: true},
		{Family: "mt-striped", DeferWrites: true, StarvationAvoidance: true},
		{Family: "composite"},
		{Family: "dmt"},
		{Family: "nested"},
		{Family: "mt", StarvationAvoidance: true},
		{Family: "mt", DeferWrites: true, StarvationAvoidance: true},
		{Family: "mt-striped", StarvationAvoidance: true},
	}
	workloads := []string{"conflict-2x2", "ww-2x1", "rw-2x1", "mix-3x2", "mix-3x3", "transfer-3x3"}
	for _, cfg := range families {
		for _, wn := range workloads {
			w, ok := NamedWorkload(wn)
			if !ok {
				panic("unknown workload " + wn)
			}
			cfg.Initial = map[string]int64{"a": 10, "b": 20, "c": 30, "x": 40}
			out = append(out, CampaignOptions{Config: cfg, Workload: w})
		}
	}
	return out
}

func comboName(o CampaignOptions) string {
	n := o.Config.Family
	if o.Config.DeferWrites {
		n += "-defer"
	}
	if o.Config.StarvationAvoidance {
		n += "-sa"
	}
	return n + "/" + o.Workload.Name
}

func describeFailure(t *testing.T, o CampaignOptions, f *Failure) string {
	t.Helper()
	tr := TraceFor(o, f)
	return fmt.Sprintf("%s\nstatus=%s choices=%d seed=%d\ntrace:\n%s",
		f.Error(), f.Exec.Status, len(f.Exec.Choices), f.Seed, tr.Format())
}

// TestExplore sweeps PCT schedules over every scheduler family and
// asserts all oracles hold: no panics, no deadlocks, DSR histories,
// parity with the coarse reference, unique column allocations.
func TestExplore(t *testing.T) {
	for _, combo := range pctCombos() {
		combo := combo
		t.Run(comboName(combo), func(t *testing.T) {
			combo.Strategy = &PCT{Seed: 1, Budget: *exploreBudget}
			res := RunCampaign(combo)
			if len(res.Failures) > 0 {
				t.Fatalf("explore failure:\n%s", describeFailure(t, combo, res.Failures[0]))
			}
			if res.Executions != *exploreBudget {
				t.Fatalf("ran %d executions, budget %d", res.Executions, *exploreBudget)
			}
			t.Logf("%d executions, %d distinct schedules, %v", res.Executions, res.Distinct, res.Elapsed)
		})
	}
}

// TestExploreDFSExhaustive proves the harness enumerates the complete
// schedule space of a tiny workload. Two conflict-free transactions of
// two operations each yield exactly four atomic segments per task under
// the operations-only preemption policy, so the interleaving count must
// equal C(8,4) = 70 — no more (determinism), no fewer (exhaustiveness).
func TestExploreDFSExhaustive(t *testing.T) {
	w, _ := NamedWorkload("disjoint-2x2")
	d := &DFS{}
	res := RunCampaign(CampaignOptions{
		Config:   Config{Family: "mt-striped", Initial: map[string]int64{"a": 1, "b": 2}},
		Workload: w,
		Strategy: d,
		Preempt:  PreemptOps,
	})
	if len(res.Failures) > 0 {
		t.Fatalf("explore failure:\n%s", res.Failures[0].Error())
	}
	if !res.Exhausted {
		t.Fatalf("DFS did not exhaust the schedule space (%d schedules)", res.Executions)
	}
	if res.Executions != 70 || res.Distinct != 70 {
		t.Fatalf("expected exactly C(8,4) = 70 schedules, got %d executions / %d distinct", res.Executions, res.Distinct)
	}
}

// TestExploreDFSConflict exhausts the schedule space of a genuinely
// conflicting 2x2 workload on all four scheduler families, checking
// every interleaving against the full oracle set.
func TestExploreDFSConflict(t *testing.T) {
	configs := []Config{
		{Family: "mt"},
		{Family: "mt-striped"},
		{Family: "mt-striped", DeferWrites: true},
		{Family: "composite"},
		{Family: "dmt"},
		{Family: "nested"},
	}
	w, _ := NamedWorkload("conflict-2x2")
	w.MaxRetries = 1 // bound the space: one retry is enough to cover abort paths
	for _, cfg := range configs {
		cfg := cfg
		cfg.Initial = map[string]int64{"a": 10, "b": 20}
		name := cfg.Family
		if cfg.DeferWrites {
			name += "-defer"
		}
		t.Run(name, func(t *testing.T) {
			d := &DFS{MaxSchedules: 60000}
			res := RunCampaign(CampaignOptions{
				Config:   cfg,
				Workload: w,
				Strategy: d,
				Preempt:  PreemptOps,
			})
			if len(res.Failures) > 0 {
				t.Fatalf("explore failure:\n%s", res.Failures[0].Error())
			}
			if !res.Exhausted {
				t.Fatalf("DFS hit the %d-schedule cap before exhausting", d.MaxSchedules)
			}
			t.Logf("%d schedules exhausted in %v (statuses %v)", res.Executions, res.Elapsed, res.Statuses)
		})
	}
}

// inversionOptions is the seeded publish-inversion scenario: striped MT
// with deferred writes and the latch-release window between validation
// and publish reintroduced behind the test-only flag.
func inversionOptions() CampaignOptions {
	w, _ := NamedWorkload("ww-2x1")
	return CampaignOptions{
		Config: Config{
			Family:        "mt-striped",
			DeferWrites:   true,
			UnsafePublish: true,
			Initial:       map[string]int64{"x": 7},
		},
		Workload: w,
	}
}

// reclaimOptions is the seeded pooled-entry eager-reclaim scenario:
// striped MT whose finished entries are recycled while still pinned as
// an item's most-recent timestamp. Only schedules that order another
// transaction's conflict test after the reclaim see the empty vector
// and diverge from the coarse reference — the interleaving the
// checked-in eager_reclaim.trace pins.
func reclaimOptions() CampaignOptions {
	w, _ := NamedWorkload("mix-3x2")
	return CampaignOptions{
		Config: Config{
			Family:             "mt-striped",
			UnsafeEagerReclaim: true,
			Initial:            map[string]int64{"a": 10, "b": 20},
		},
		Workload: w,
	}
}

// TestExplorePCTFindsEagerReclaim is the acceptance test for the
// pooled-entry lifecycle oracle: PCT must find a schedule where the
// eager reclaim changes a decision (parity or DSR divergence), and the
// real reclaim discipline must pass the same schedule.
func TestExplorePCTFindsEagerReclaim(t *testing.T) {
	o := reclaimOptions()
	o.Strategy = &PCT{Seed: 11, Budget: 400}
	res := RunCampaign(o)
	if len(res.Failures) == 0 {
		t.Fatalf("PCT did not find the eager-reclaim divergence in %d executions", res.Executions)
	}
	f := res.Failures[0]
	t.Logf("found after %d executions: %s (seed %d, %d directives)",
		res.Executions, f.Error(), f.Seed, len(f.Dirs))
	fixed := o
	fixed.Config.UnsafeEagerReclaim = false
	if _, ff, _ := ReplayTrace(fixed, &Trace{Dirs: f.Dirs}); ff != nil {
		t.Fatalf("correct reclaim discipline fails the schedule: %v", ff)
	}
}

// livelockOptions is the seeded express-lane livelock scenario: the
// runtime retry loop under an admission controller whose express scale
// is forced to zero, so a conflict-aborted young transaction retries
// with no backoff at all.
func livelockOptions(inject bool) CampaignOptions {
	// mt-striped: its latch.acquire pre-yields give the controller an
	// interleaving point before every operation inside rt.Exec, which is
	// what makes conflict aborts (and so backoff decisions) reachable.
	w, _ := NamedWorkload("conflict-2x2")
	return CampaignOptions{
		Config:   Config{Family: "mt-striped", Initial: map[string]int64{"a": 10, "b": 20}},
		Workload: w,
		Runtime: &RuntimeMode{
			MaxAttempts: 4,
			Backoff:     time.Nanosecond,
			Aging:       &admit.AgingOptions{UnsafeZeroExpress: inject},
		},
		Oracles: Oracles{ZeroExpress: true},
	}
}

// shrinkCheck reruns a directive subset against the scenario and
// reports whether the same oracle still fails.
func shrinkCheck(o CampaignOptions, oracle string) func([]Directive) bool {
	return func(dirs []Directive) bool {
		tr := &Trace{Dirs: dirs}
		_, f, _ := ReplayTrace(o, tr)
		return f != nil && f.Oracle == oracle
	}
}

// TestExplorePCTFindsSeededInversion is the end-to-end acceptance test
// for the search half of the harness: PCT must find the reintroduced
// publish inversion within budget, the failing schedule must replay
// deterministically from its directives, and delta debugging must
// shrink it to at most 10 directives.
func TestExplorePCTFindsSeededInversion(t *testing.T) {
	o := inversionOptions()
	o.Strategy = &PCT{Seed: 42, Budget: 400}
	res := RunCampaign(o)
	if len(res.Failures) == 0 {
		t.Fatalf("PCT did not find the seeded publish inversion in %d executions", res.Executions)
	}
	f := res.Failures[0]
	t.Logf("found after %d executions: %s (seed %d, %d directives)",
		res.Executions, f.Error(), f.Seed, len(f.Dirs))

	// The raw directive list must replay to the same oracle failure.
	_, rf, _ := ReplayTrace(o, &Trace{Dirs: f.Dirs})
	if rf == nil || rf.Oracle != f.Oracle {
		t.Fatalf("failing schedule did not replay: got %v, want oracle %q", rf, f.Oracle)
	}

	shrunk := Shrink(f.Dirs, shrinkCheck(o, f.Oracle), 0)
	t.Logf("shrunk %d -> %d directives", len(f.Dirs), len(shrunk))
	if len(shrunk) > 10 {
		t.Fatalf("shrunk schedule still needs %d directives (want <= 10)", len(shrunk))
	}
	// And the shrunk schedule must itself reproduce.
	_, sf, _ := ReplayTrace(o, &Trace{Dirs: shrunk})
	if sf == nil || sf.Oracle != f.Oracle {
		t.Fatalf("shrunk schedule did not reproduce: got %v", sf)
	}
	// The fixed code must pass the same schedule.
	fixed := o
	fixed.Config.UnsafePublish = false
	if _, ff, _ := ReplayTrace(fixed, &Trace{Dirs: shrunk}); ff != nil {
		t.Fatalf("fixed scheduler fails the shrunk schedule: %v", ff)
	}
}

// TestExplorePCTFindsZeroExpress finds the seeded express-lane livelock
// through the runtime-mode harness.
func TestExplorePCTFindsZeroExpress(t *testing.T) {
	o := livelockOptions(true)
	o.Strategy = &PCT{Seed: 7, Budget: 200}
	res := RunCampaign(o)
	if len(res.Failures) == 0 {
		t.Fatalf("PCT did not find the zero express scale in %d executions", res.Executions)
	}
	f := res.Failures[0]
	if f.Oracle != "zero-express" {
		t.Fatalf("unexpected oracle %q: %s", f.Oracle, f.Error())
	}
	// The fix (a real express scale) passes the same schedule.
	if _, ff, _ := ReplayTrace(livelockOptions(false), &Trace{Dirs: f.Dirs}); ff != nil {
		t.Fatalf("fixed admission control fails the schedule: %v", ff)
	}
}

// regenTrace searches for a seeded bug, shrinks the first failure, and
// writes the checked-in regression trace.
func regenTrace(t *testing.T, path string, o CampaignOptions, seed int64, budget int) {
	t.Helper()
	o.Strategy = &PCT{Seed: seed, Budget: budget}
	res := RunCampaign(o)
	if len(res.Failures) == 0 {
		t.Fatalf("regen: no failure found for %s in %d executions", path, res.Executions)
	}
	f := res.Failures[0]
	f.Dirs = Shrink(f.Dirs, shrinkCheck(o, f.Oracle), 0)
	tr := TraceFor(o, f)
	if err := os.WriteFile(path, tr.Format(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d directives, oracle %s)", path, len(f.Dirs), f.Oracle)
}

// TestExploreRegenTraces rewrites the testdata traces from scratch.
// Run with: go test ./internal/explore -run TestExploreRegenTraces -explore.regen
func TestExploreRegenTraces(t *testing.T) {
	if !*exploreRegen {
		t.Skip("pass -explore.regen to rewrite testdata traces")
	}
	regenTrace(t, filepath.Join("testdata", "publish_inversion.trace"), inversionOptions(), 42, 400)
	regenTrace(t, filepath.Join("testdata", "express_livelock.trace"), livelockOptions(true), 7, 200)
	regenTrace(t, filepath.Join("testdata", "eager_reclaim.trace"), reclaimOptions(), 11, 400)
}

// TestExploreRegressionTraces replays every checked-in trace twice:
// with the seeded bug injected (the trace's oracle must fail — the
// regression is still detectable) and without (the fixed code must pass
// the exact same schedule). These are the PR 5 publish-inversion and
// PR 7 express-lane-livelock bugs as deterministic schedules.
func TestExploreRegressionTraces(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no testdata traces: run go test -run TestExploreRegenTraces -explore.regen")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := ParseTrace(data)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			wantOracle := tr.Get("oracle")
			if wantOracle == "" {
				t.Fatal("trace has no oracle metadata")
			}

			buggy, err := OptionsFromTrace(tr, true)
			if err != nil {
				t.Fatal(err)
			}
			_, f, diverged := ReplayTrace(buggy, tr)
			if f == nil {
				t.Fatalf("trace no longer reproduces its failure (diverged=%v)", diverged)
			}
			if f.Oracle != wantOracle {
				t.Fatalf("trace reproduces oracle %q, recorded %q: %s", f.Oracle, wantOracle, f.Error())
			}

			fixed, err := OptionsFromTrace(tr, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, ff, _ := ReplayTrace(fixed, tr); ff != nil {
				t.Fatalf("fixed code fails the regression schedule: %s", ff.Error())
			}
		})
	}
}

// TestExploreDeadlockDetection builds a two-task lock-order inversion
// out of plain controlled acquisitions and asserts the controller
// reports it as a deadlock rather than hanging.
func TestExploreDeadlockDetection(t *testing.T) {
	// Simulated resources: two "latches" represented by try-channels.
	// The tasks acquire them in opposite orders with a yield between, so
	// one schedule deadlocks.
	d := &DFS{}
	var found bool
	for d.Begin(2) {
		ctl := New(Options{Strategy: d, Preempt: func(string) bool { return true }})
		resA := newFakeLatch()
		resB := newFakeLatch()
		ctl.Go("t0", func() { resA.lock(); yieldHere(); resB.lock(); resB.unlock(); resA.unlock() })
		ctl.Go("t1", func() { resB.lock(); yieldHere(); resA.lock(); resA.unlock(); resB.unlock() })
		ex := ctl.Run()
		d.End(ex)
		if ex.Status == StatusDeadlock {
			found = true
			if len(ex.Blocked) != 2 {
				t.Fatalf("deadlock with %d blocked tasks, want 2", len(ex.Blocked))
			}
		} else if ex.Status != StatusOK {
			t.Fatalf("unexpected status %s", ex.Status)
		}
	}
	if !d.Exhausted() {
		t.Fatalf("DFS not exhausted: %v", d.Err)
	}
	if !found {
		t.Fatal("no schedule deadlocked; the inversion must be reachable")
	}
}

// TestExplorePanicCapture asserts a panicking task is reported with its
// identity and value, and the run tears down cleanly.
func TestExplorePanicCapture(t *testing.T) {
	r := &Replay{Trace: &Trace{}}
	r.Begin(2)
	ctl := New(Options{Strategy: r, Preempt: func(string) bool { return true }})
	ctl.Go("calm", func() { yieldHere() })
	ctl.Go("bomb", func() { yieldHere(); panic("boom") })
	ex := ctl.Run()
	if ex.Status != StatusPanic {
		t.Fatalf("status %s, want panic", ex.Status)
	}
	if ex.PanicOn != "bomb" || ex.PanicVal != "boom" {
		t.Fatalf("panic attribution: on=%q val=%v", ex.PanicOn, ex.PanicVal)
	}
	if !strings.Contains(ex.Stack, "boom") && ex.Stack == "" {
		t.Fatal("no stack captured")
	}
}

// TestExploreShrink checks ddmin minimizes to the known-minimal subset.
func TestExploreShrink(t *testing.T) {
	dirs := make([]Directive, 12)
	for i := range dirs {
		dirs[i] = Directive{Step: i, Task: i % 2}
	}
	// Failure reproduces iff directives at steps 3 and 8 are both kept.
	check := func(d []Directive) bool {
		has := map[int]bool{}
		for _, x := range d {
			has[x.Step] = true
		}
		return has[3] && has[8]
	}
	got := Shrink(dirs, check, 0)
	if len(got) != 2 || got[0].Step != 3 || got[1].Step != 8 {
		t.Fatalf("shrink result %v, want steps [3 8]", got)
	}
}

// TestExploreTraceRoundTrip exercises the canonical-format property on
// a handwritten trace and the documented rejections.
func TestExploreTraceRoundTrip(t *testing.T) {
	in := "# a comment\n\nmtexplore-trace v1\nmeta family mt\nmeta workload ww-2x1\nswitch 0 1\nswitch 4 0\n"
	tr, err := ParseTrace([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	out := tr.Format()
	tr2, err := ParseTrace(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if string(tr2.Format()) != string(out) {
		t.Fatalf("not canonical:\n%s\nvs\n%s", out, tr2.Format())
	}
	bad := []string{
		"",                               // no header
		"mtexplore-trace v2\n",           // wrong version
		"mtexplore-trace v1\nswitch 1\n", // malformed switch
		"mtexplore-trace v1\nswitch 2 0\nswitch 1 0\n", // non-increasing
		"mtexplore-trace v1\nswitch 01 0\n",            // non-canonical int
		"mtexplore-trace v1\nmeta k v\nmeta k w\n",     // duplicate key
		"mtexplore-trace v1\nmeta k\n",                 // missing value
		"mtexplore-trace v1\nbogus 1 2\n",              // unknown directive
	}
	for _, b := range bad {
		if _, err := ParseTrace([]byte(b)); err == nil {
			t.Fatalf("accepted invalid trace %q", b)
		}
	}
}

// fakeLatch is a controller-visible lock for the pure-harness tests.
type fakeLatch struct {
	res uint64
	ch  chan struct{}
}

func newFakeLatch() *fakeLatch {
	return &fakeLatch{res: newResource(), ch: make(chan struct{}, 1)}
}

func (l *fakeLatch) lock() {
	if acquireRes(l.res, func() bool {
		select {
		case l.ch <- struct{}{}:
			return true
		default:
			return false
		}
	}) {
		return
	}
	l.ch <- struct{}{}
}

func (l *fakeLatch) unlock() {
	<-l.ch
	releaseRes(l.res)
}
