package engine

import (
	"fmt"
	"math/rand"
	"testing"

	. "repro/internal/core"
	"repro/internal/oplog"
)

// Lifecycle fuzz, and the seam property: the same random sequence driven
// through Step(op) on one instance and through StepReadID/StepWriteID on
// a twin gives identical verdicts, blockers, vectors and watermarks
// under every option that touches the step path.
func TestFuzzSchedulerLifecycle(t *testing.T) {
	items := []string{"a", "b", "c"}
	for seed := int64(0); seed < 20000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		opts := Options{K: k, StarvationAvoidance: true,
			ThomasWriteRule: rng.Intn(2) == 0, RelaxedReadCheck: rng.Intn(2) == 0}
		s := NewScheduler(opts)
		// The twin's extra options draw from a stream of their own, so the
		// sequences the lifecycle half has always run stay the same.
		orng := rand.New(rand.NewSource(^seed))
		if orng.Intn(2) == 0 {
			opts.HotItems = map[string]bool{items[orng.Intn(len(items))]: true}
		}
		opts.HotThreshold = orng.Intn(4)
		byName, byID := NewScheduler(opts), NewScheduler(opts)
		type tstate struct {
			blocker     int
			twinBlocker int // the twins run other options, so may reject elsewhere
			live        bool
		}
		txns := map[int]*tstate{}
		var trace []string
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d panic: %v\ntrace:\n%s", seed, r, fmt.Sprint(trace))
				}
			}()
			for step := 0; step < 40; step++ {
				txn := 1 + rng.Intn(5)
				st := txns[txn]
				if st == nil {
					st = &tstate{live: true}
					txns[txn] = st
				}
				switch rng.Intn(10) {
				case 0: // commit
					if st.live {
						trace = append(trace, fmt.Sprintf("C%d", txn))
						s.Commit(txn)
						byName.Commit(txn)
						byID.Commit(txn)
						st.live = false
					}
				case 1: // abort
					trace = append(trace, fmt.Sprintf("A%d(b=%d)", txn, st.blocker))
					s.Abort(txn, st.blocker)
					byName.Abort(txn, st.twinBlocker)
					byID.Abort(txn, st.twinBlocker)
					st.blocker, st.twinBlocker = 0, 0
				default:
					it := items[rng.Intn(len(items))]
					var op oplog.Op
					if rng.Intn(2) == 0 {
						op = oplog.R(txn, it)
					} else {
						op = oplog.W(txn, it)
					}
					trace = append(trace, op.String())
					st.live = true
					d := s.Step(op)
					if d.Verdict == Reject {
						st.blocker = d.Blocker
					}
					dn := byName.Step(op)
					step := byID.StepWriteID
					if op.Kind == oplog.Read {
						step = byID.StepReadID
					}
					v, blocker := step(txn, byID.names.ID(it))
					if dn.Verdict != v || dn.Blocker != blocker {
						t.Fatalf("seed %d %s: Step = %v by %d, id form = %v by %d\ntrace: %v",
							seed, op, dn.Verdict, dn.Blocker, v, blocker, trace)
					}
					if v == Reject {
						st.twinBlocker = blocker
					}
				}
			}
			sameState(t, seed, byName, byID)
		}()
	}
}

// sameState asserts two schedulers hold identical vectors, RT/WT
// holders and counter watermarks.
func sameState(t *testing.T, seed int64, a, b *Scheduler) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("seed %d: %d live vectors by name, %d by id", seed, len(sa), len(sb))
	}
	for txn, v := range sa {
		if w := sb[txn]; w == nil || v.String() != w.String() {
			t.Fatalf("seed %d: TS(%d) = %v by name, %v by id", seed, txn, v, w)
		}
	}
	for _, x := range a.names.Names() {
		if a.RT(x) != b.RT(x) || a.WT(x) != b.WT(x) {
			t.Fatalf("seed %d: holders of %s differ: RT %d/%d WT %d/%d", seed, x, a.RT(x), b.RT(x), a.WT(x), b.WT(x))
		}
	}
	alo, ahi := a.Watermarks()
	if blo, bhi := b.Watermarks(); alo != blo || ahi != bhi {
		t.Fatalf("seed %d: watermarks (%d,%d) by name, (%d,%d) by id", seed, alo, ahi, blo, bhi)
	}
}
