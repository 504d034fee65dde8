package sim

import (
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// overloadBase is the 1× point of the overload experiments: a
// high-contention hotspot workload on the striped MT scheduler.
func overloadBase(withAdmit bool) OverloadConfig {
	// 2000 transactions keep every point's wall time in the hundreds of
	// milliseconds: goodput is commits over wall, and on a small host a
	// sub-50ms point measures scheduler warm-up noise, not throughput.
	specs := workload.Config{
		Txns: 4000, OpsPerTxn: 4, Items: 32,
		ReadFraction: 0.5, HotItems: 4, HotFraction: 0.9,
		Seed: 7,
	}.Generate()
	base := Config{
		NewScheduler: func(st *storage.Store) sched.Scheduler {
			return sched.NewMT(st, sched.MTOptions{Core: engine.Options{K: 7, StarvationAvoidance: true}})
		},
		Specs:       specs,
		Workers:     4,
		Backoff:     30 * time.Microsecond,
		RuntimeSeed: 7,
		// The deadline is the transaction's entire budget (admission wait
		// and retries included): goodput counts only commits inside it,
		// the textbook definition, and it bounds the sweep's wall time.
		Deadline: 25 * time.Millisecond,
		// Rejected clients pause before re-offering, as real ones do;
		// without this, shedding on a small host becomes a busy loop
		// that starves the very work admission control protects.
		ShedPause: 200 * time.Microsecond,
	}
	if withAdmit {
		// ElderAfter sits above the restart budget a 25ms deadline allows:
		// deadline-bounded transactions cannot starve (the deadline caps
		// their life), so promoting them to elders would only trade
		// goodput for a guarantee the deadline already voids. The
		// starvation storm (starvation_test.go), whose transactions have
		// no deadline, is where the elder machinery earns its keep.
		base.Admit = &admit.Options{Aging: admit.AgingOptions{ElderAfter: 64}}
	}
	return OverloadConfig{Base: base, Factors: []float64{1, 4, 10}, Repeats: 5}
}

// With admission control on, goodput at 10× the knee's offered load
// must hold at least 65% of the knee — the closed-loop acceptance
// criterion for the overload subsystem. (The bar was 70% of a ~11k/s
// knee before the PR 10 yield-spin runtime; the knee has since
// tripled and the 10× point doubled, so 65% of today's knee demands
// roughly twice the absolute goodput the old bar did. The limiter-
// collapse failure modes this test exists to catch measured 0.49-0.57
// during that work — well below either bar.) The uncontrolled curve is
// logged alongside for the E27 comparison but not asserted on: how
// hard the raw scheduler collapses is load- and host-dependent.
func TestOverloadGoodputRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("overload sweep is seconds-long; skipped in -short")
	}
	if testutil.RaceEnabled {
		// Goodput retention is a timing assertion: the race detector's
		// ~10x slowdown moves the saturation knee and makes the fixed
		// latency floor over-throttle the limiter. The race leg covers
		// the overload machinery's correctness via the starvation storm
		// and the admit package's own tests instead.
		t.Skip("retention is a timing assertion; meaningless under the race detector's slowdown")
	}
	res := RunOverload(overloadBase(true))
	for _, p := range res.Points {
		t.Logf("admit : %s", p)
		r := p.Report
		if got := r.Committed + r.Shed + r.DeadlineMiss + r.GaveUp; got != int64(r.Txns) {
			t.Errorf("x%g: committed+shed+deadline-miss+gaveup = %d, want %d (every offered txn accounted)",
				p.Factor, got, r.Txns)
		}
	}
	t.Logf("admit : knee at x%g, retention %.2f", res.KneePoint().Factor, res.Retention())
	if ret := res.Retention(); ret < 0.65 {
		t.Errorf("goodput retention at 10x = %.2f, want >= 0.65 of the knee", ret)
	}

	raw := RunOverload(overloadBase(false))
	for _, p := range raw.Points {
		t.Logf("no-adm: %s", p)
	}
	t.Logf("no-adm: knee at x%g, retention %.2f", raw.KneePoint().Factor, raw.Retention())
}

// scaleSpecs must re-ID the replicated copies distinctly and respect
// fractional factors.
func TestScaleSpecs(t *testing.T) {
	base := workload.Config{Txns: 10, OpsPerTxn: 2, Items: 4, ReadFraction: 0.5, Seed: 1}.Generate()
	got := scaleSpecs(base, 2.5)
	if len(got) != 25 {
		t.Fatalf("len = %d, want 25", len(got))
	}
	seen := map[int]bool{}
	for _, s := range got {
		if s.ID <= 0 || seen[s.ID] {
			t.Fatalf("duplicate or invalid ID %d", s.ID)
		}
		seen[s.ID] = true
	}
	if half := scaleSpecs(base, 0.5); len(half) != 5 {
		t.Fatalf("half len = %d, want 5", len(half))
	}
}
