package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	. "repro/internal/core"
	"repro/internal/oplog"
)

// stripedDiffConfig is one cell of the differential matrix.
type stripedDiffConfig struct {
	name string
	opts Options
}

func stripedDiffMatrix() []stripedDiffConfig {
	return []stripedDiffConfig{
		{"k1", Options{K: 1}},
		{"k2", Options{K: 2}},
		{"k3", Options{K: 3}},
		{"k2-thomas", Options{K: 2, ThomasWriteRule: true}},
		{"k2-starve", Options{K: 2, StarvationAvoidance: true}},
		{"k2-relaxed", Options{K: 2, RelaxedReadCheck: true}},
		{"k3-mono", Options{K: 3, MonotonicEncoding: true}},
		{"k3-hot", Options{K: 3, HotThreshold: 3}},
		{"k3-all", Options{K: 3, ThomasWriteRule: true, StarvationAvoidance: true,
			RelaxedReadCheck: true, HotThreshold: 4}},
	}
}

// TestStripedMatchesCoarse drives the coarse Scheduler and the Striped
// scheduler through identical random operation streams (single
// goroutine, so the striped one runs in a fixed serial order) and
// asserts bit-identical behaviour: every Decision, every trace event,
// the counters, the live-vector count and every surviving vector.
func TestStripedMatchesCoarse(t *testing.T) {
	for _, cfg := range stripedDiffMatrix() {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) {
				runStripedDiff(t, cfg.opts, seed)
			})
		}
	}
}

func runStripedDiff(t *testing.T, opts Options, seed int64) {
	t.Helper()
	var coarseTrace, stripedTrace []Event
	co := opts
	co.Trace = func(e Event) { coarseTrace = append(coarseTrace, e) }
	so := opts
	so.Trace = func(e Event) { stripedTrace = append(stripedTrace, e) }
	coarse := NewScheduler(co)
	// A tiny stripe count forces distinct items onto shared stripes, so
	// the differential also covers latch/stripe aliasing.
	striped := NewStripedSize(so, 4)

	rng := rand.New(rand.NewSource(seed))
	const txns = 12
	items := []string{"a", "b", "c", "d", "e"}
	blockers := make(map[int]int)
	live := make(map[int]bool)
	for step := 0; step < 400; step++ {
		i := 1 + rng.Intn(txns)
		switch r := rng.Float64(); {
		case r < 0.40: // read
			n := 1
			if rng.Intn(4) == 0 {
				n = 2
			}
			op := oplog.R(i, pickItems(rng, items, n)...)
			compareStep(t, step, coarse, striped, op, blockers, live)
		case r < 0.80: // write
			op := oplog.W(i, pickItems(rng, items, 1)...)
			compareStep(t, step, coarse, striped, op, blockers, live)
		case r < 0.92: // commit
			if live[i] {
				coarse.Commit(i)
				striped.Commit(i)
				delete(live, i)
				delete(blockers, i)
			}
		default: // abort with the last rejecting blocker (starvation path)
			if live[i] {
				coarse.Abort(i, blockers[i])
				striped.Abort(i, blockers[i])
				delete(live, i)
				delete(blockers, i)
			}
		}
		if len(coarseTrace) != len(stripedTrace) {
			t.Fatalf("step %d: trace lengths diverge: coarse %d striped %d",
				step, len(coarseTrace), len(stripedTrace))
		}
	}
	if !reflect.DeepEqual(coarseTrace, stripedTrace) {
		for i := range coarseTrace {
			if coarseTrace[i] != stripedTrace[i] {
				t.Fatalf("trace[%d]: coarse %+v striped %+v", i, coarseTrace[i], stripedTrace[i])
			}
		}
		t.Fatalf("traces differ")
	}
	cl, cu := coarse.Watermarks()
	sl, su := striped.Watermarks()
	if cl != sl || cu != su {
		t.Fatalf("counters: coarse (%d,%d) striped (%d,%d)", cl, cu, sl, su)
	}
	if coarse.LiveVectors() != striped.LiveVectors() {
		t.Fatalf("live vectors: coarse %d striped %d", coarse.LiveVectors(), striped.LiveVectors())
	}
	cs, ss := coarse.Snapshot(), striped.Snapshot()
	if len(cs) != len(ss) {
		t.Fatalf("snapshot sizes: coarse %d striped %d", len(cs), len(ss))
	}
	for id, cv := range cs {
		sv := ss[id]
		if sv == nil {
			t.Fatalf("txn %d in coarse snapshot only", id)
		}
		if cv.String() != sv.String() {
			t.Fatalf("txn %d vectors differ: coarse %v striped %v", id, cv, sv)
		}
	}
}

func pickItems(rng *rand.Rand, items []string, n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		x := items[rng.Intn(len(items))]
		dup := false
		for _, y := range out {
			if y == x {
				dup = true
			}
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}

func compareStep(t *testing.T, step int, coarse *Scheduler, striped *Striped,
	op oplog.Op, blockers map[int]int, live map[int]bool) {
	t.Helper()
	dc := coarse.Step(op)
	ds := striped.Step(op)
	if dc.Verdict != ds.Verdict || dc.Blocker != ds.Blocker || dc.Item != ds.Item ||
		!reflect.DeepEqual(dc.IgnoredItems, ds.IgnoredItems) {
		t.Fatalf("step %d op %v: coarse %+v striped %+v", step, op, dc, ds)
	}
	live[op.Txn] = true
	if dc.Verdict == Reject {
		blockers[op.Txn] = dc.Blocker
	}
	// Spot-check the per-item indexes agree.
	for _, x := range op.Items {
		if coarse.RT(x) != striped.RT(x) || coarse.WT(x) != striped.WT(x) {
			t.Fatalf("step %d item %s: RT/WT coarse (%d,%d) striped (%d,%d)",
				step, x, coarse.RT(x), coarse.WT(x), striped.RT(x), striped.WT(x))
		}
	}
}

// TestStripedAcceptsPaperExample replays the Example 1 two-step log
// (accepted by MT(2), rejected by MT(1)) through the striped scheduler.
func TestStripedAcceptsPaperExample(t *testing.T) {
	l := oplog.MustParse("W1[x] W1[y] R3[x] R2[y] W3[y]")
	s := NewStriped(Options{K: 2})
	for idx, op := range l.Ops {
		if d := s.Step(op); d.Verdict == Reject {
			t.Fatalf("op %d %v rejected (blocker %d)", idx, op, d.Blocker)
		}
	}
	s1 := NewStriped(Options{K: 1})
	rejected := false
	for _, op := range l.Ops {
		if d := s1.Step(op); d.Verdict == Reject {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("MT(1)/striped accepted the Example 1 log")
	}
}

// TestStripedReclaimsVectors mirrors the coarse storage-reclamation
// behaviour: committed transactions vanish once unpinned.
func TestStripedReclaimsVectors(t *testing.T) {
	s := NewStriped(Options{K: 2})
	for i := 1; i <= 50; i++ {
		if d := s.Step(oplog.R(i, "x")); d.Verdict == Reject {
			t.Fatalf("read %d rejected", i)
		}
		if d := s.Step(oplog.W(i, "x")); d.Verdict == Reject {
			t.Fatalf("write %d rejected", i)
		}
		s.Commit(i)
	}
	// Only T_0 and the last transaction (still pinned as RT/WT) survive.
	if n := s.LiveVectors(); n > 3 {
		t.Fatalf("LiveVectors = %d, want <= 3", n)
	}
}
