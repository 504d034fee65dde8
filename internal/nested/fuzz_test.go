package nested

import (
	"math/rand"
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/intern"
	"repro/internal/oplog"
)

// Lifecycle fuzz for the hierarchical protocol: random group shapes and
// operation sequences must never panic, and accepted abort-free
// sequences must be D-serializable — with commits in the sequence, so
// level-0 vectors are reclaimed under it. A twin driven through
// StepReadID/StepWriteID instead of Step(op) must agree with it on every
// verdict and blocker, and on every vector and watermark at the end.
func TestFuzzNestedLifecycle(t *testing.T) {
	items := []string{"a", "b", "c"}
	for seed := int64(0); seed < 4000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		levels := 1 + rng.Intn(3)
		ks := make([]int, levels)
		for i := range ks {
			ks[i] = 1 + rng.Intn(3)
		}
		// Random static assignment: txn -> unit per level.
		assign := map[[2]int]int{}
		unitOf := func(txn, lvl int) int {
			key := [2]int{txn, lvl}
			if u, ok := assign[key]; ok {
				return u
			}
			u := 1 + rng.Intn(2)
			// Nesting consistency: units at level l+1 derive from level l
			// (two txns in the same group share supergroups).
			assign[key] = u
			return u
		}
		// Precompute groups so that the hierarchy is consistent: group
		// determines supergroup.
		groupOf := map[int]int{}
		superOf := map[int]int{}
		for txn := 1; txn <= 5; txn++ {
			groupOf[txn] = 1 + rng.Intn(3)
		}
		for g := 1; g <= 3; g++ {
			superOf[g] = 1 + rng.Intn(2)
		}
		_ = unitOf
		opts := Options{
			Ks: ks,
			UnitOf: func(txn, lvl int) int {
				if lvl == 1 {
					return groupOf[txn]
				}
				return superOf[groupOf[txn]]
			},
		}
		s := NewScheduler(opts)
		names := intern.New()
		byID := NewSchedulerInterned(opts, names)
		var accepted []oplog.Op
		retired := map[int]bool{} // committed: a later op would be a new incarnation
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d panic: %v", seed, r)
				}
			}()
			for step := 0; step < 30; step++ {
				txn := 1 + rng.Intn(5)
				it := items[rng.Intn(len(items))]
				var op oplog.Op
				if rng.Intn(2) == 0 {
					op = oplog.R(txn, it)
				} else {
					op = oplog.W(txn, it)
				}
				if retired[txn] {
					continue
				}
				if step%7 == 6 {
					s.Commit(txn)
					byID.Commit(txn)
					retired[txn] = true
					continue
				}
				d := s.Step(op)
				if d.Verdict == core.Accept {
					accepted = append(accepted, op)
				}
				step := byID.StepWriteID
				if op.Kind == oplog.Read {
					step = byID.StepReadID
				}
				if v, blocker := step(txn, names.ID(it)); v != d.Verdict || blocker != d.Blocker {
					t.Fatalf("seed %d %s: Step = %v by %d, id form = %v by %d", seed, op, d.Verdict, d.Blocker, v, blocker)
				}
			}
			if s.LiveVectors() != byID.LiveVectors() {
				t.Fatalf("seed %d: %d level-0 vectors by name, %d by id", seed, s.LiveVectors(), byID.LiveVectors())
			}
			for id := 0; id <= 5; id++ {
				if a, b := s.TxnVector(id), byID.TxnVector(id); a.String() != b.String() {
					t.Fatalf("seed %d: TS(%d) = %v by name, %v by id", seed, id, a, b)
				}
				for lvl := 1; lvl < levels; lvl++ {
					if a, b := s.UnitVector(lvl, id), byID.UnitVector(lvl, id); a.String() != b.String() {
						t.Fatalf("seed %d: level %d unit %d = %v by name, %v by id", seed, lvl, id, a, b)
					}
				}
			}
			alo, ahi := s.Watermarks()
			if blo, bhi := byID.Watermarks(); alo != blo || ahi != bhi {
				t.Fatalf("seed %d: watermarks (%d,%d) by name, (%d,%d) by id", seed, alo, ahi, blo, bhi)
			}
		}()
		if len(accepted) > 0 && !classify.DSR(oplog.NewLog(accepted...)) {
			t.Fatalf("seed %d: accepted non-DSR sequence %v", seed, oplog.NewLog(accepted...))
		}
	}
}
