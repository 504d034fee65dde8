package composite

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/intern"
	"repro/internal/oplog"
)

// Lifecycle fuzz: random interleavings of operations, commits and aborts
// must never corrupt the composite's subprotocol tables, and every
// accepted operation prefix (per alive subprotocol) must stay consistent
// with the committed dependency structure. A twin driven through
// StepReadID/StepWriteID instead of Step(op) must agree with it on every
// verdict, on which subprotocols are alive, and on every subprotocol's
// vectors and watermarks.
func TestFuzzCompositeLifecycle(t *testing.T) {
	items := []string{"a", "b", "c"}
	for seed := int64(0); seed < 4000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		thomas := rng.Intn(2) == 0
		opts := Options{K: k, Sub: engine.Options{
			StarvationAvoidance: rng.Intn(2) == 0,
			ThomasWriteRule:     thomas,
			RelaxedReadCheck:    seed%2 == 0,
			HotThreshold:        int(seed % 3),
			HotItems:            map[string]bool{"b": seed%5 == 0},
		}}
		s := NewScheduler(opts)
		names := intern.New()
		byID := NewSchedulerInterned(opts, names)
		var accepted []oplog.Op
		var trace []string
		retired := map[int]bool{} // committed ids: ops after commit would
		// be a new incarnation and break the whole-sequence DSR check
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d panic: %v\ntrace: %v", seed, r, trace)
				}
			}()
			for step := 0; step < 30; step++ {
				txn := 1 + rng.Intn(4)
				if retired[txn] {
					continue
				}
				switch rng.Intn(10) {
				case 0:
					trace = append(trace, fmt.Sprintf("C%d", txn))
					s.Commit(txn)
					byID.Commit(txn)
					retired[txn] = true
				case 1:
					trace = append(trace, fmt.Sprintf("A%d", txn))
					s.Abort(txn, 0)
					byID.Abort(txn, 0)
				default:
					var op oplog.Op
					it := items[rng.Intn(len(items))]
					if rng.Intn(2) == 0 {
						op = oplog.R(txn, it)
					} else {
						op = oplog.W(txn, it)
					}
					trace = append(trace, op.String())
					d := s.Step(op)
					if d.Verdict != core.Reject {
						accepted = append(accepted, op)
					} else if len(s.Alive()) != 0 {
						t.Fatalf("seed %d: reject while subprotocols alive: %v", seed, s.Alive())
					}
					step := byID.StepWriteID
					if op.Kind == oplog.Read {
						step = byID.StepReadID
					}
					if v, _ := step(txn, names.ID(it)); v != d.Verdict || !slices.Equal(byID.Alive(), s.Alive()) {
						t.Fatalf("seed %d %s: Step = %v alive %v, id form = %v alive %v\ntrace: %v",
							seed, op, d.Verdict, s.Alive(), v, byID.Alive(), trace)
					}
				}
			}
			for h := 1; h <= k; h++ {
				a, b := s.Sub(h), byID.Sub(h)
				if fmt.Sprint(a.Snapshot()) != fmt.Sprint(b.Snapshot()) {
					t.Fatalf("seed %d: MT(%d) vectors differ: %v vs %v", seed, h, a.Snapshot(), b.Snapshot())
				}
				alo, ahi := a.Watermarks()
				if blo, bhi := b.Watermarks(); alo != blo || ahi != bhi {
					t.Fatalf("seed %d: MT(%d) watermarks (%d,%d) vs (%d,%d)", seed, h, alo, ahi, blo, bhi)
				}
			}
		}()
		// The accepted operation sequence need not be DSR as a whole
		// (aborted transactions interleave), but with no aborts in the
		// trace it must be.
		hasAbort := false
		for _, e := range trace {
			if len(e) > 0 && e[0] == 'A' {
				hasAbort = true
			}
		}
		// Thomas-ignored writes are view- but not conflict-serializable,
		// so the raw-sequence DSR check only applies with the rule off.
		if !hasAbort && !thomas && len(accepted) > 0 {
			if !classify.DSR(oplog.NewLog(accepted...)) {
				t.Fatalf("seed %d: accepted non-DSR sequence", seed)
			}
		}
	}
}

// Lifecycle fuzz for the shared-table implementation: random operation
// sequences never panic and abort-free accepted sequences stay DSR.
func TestFuzzSharedLifecycle(t *testing.T) {
	items := []string{"a", "b", "c"}
	for seed := int64(0); seed < 4000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSharedScheduler(1 + rng.Intn(4))
		var accepted []oplog.Op
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d panic: %v", seed, r)
				}
			}()
			for step := 0; step < 30; step++ {
				txn := 1 + rng.Intn(4)
				it := items[rng.Intn(len(items))]
				var op oplog.Op
				if rng.Intn(2) == 0 {
					op = oplog.R(txn, it)
				} else {
					op = oplog.W(txn, it)
				}
				if d := s.Step(op); d.Verdict != core.Reject {
					accepted = append(accepted, op)
				}
			}
		}()
		if len(accepted) > 0 && !classify.DSR(oplog.NewLog(accepted...)) {
			t.Fatalf("seed %d: shared accepted non-DSR sequence %v",
				seed, oplog.NewLog(accepted...))
		}
	}
}
