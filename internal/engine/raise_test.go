package engine

import (
	"testing"

	. "repro/internal/core"
	"repro/internal/oplog"
)

// mtEngine is what the raise tests drive on both disciplines.
type mtEngine interface {
	Step(oplog.Op) Decision
	Abort(i, blocker int)
	Commit(i int)
	Vector(i int) *Vector
}

// bothEngines runs f against the coarse Scheduler and the Striped
// scheduler built with the same options, collecting each one's trace.
func bothEngines(t *testing.T, opts Options, f func(t *testing.T, s mtEngine, trace *[]Event)) {
	t.Run("coarse", func(t *testing.T) {
		var trace []Event
		o := opts
		o.Trace = func(e Event) { trace = append(trace, e) }
		f(t, NewScheduler(o), &trace)
	})
	t.Run("striped", func(t *testing.T) {
		var trace []Event
		o := opts
		o.Trace = func(e Event) { trace = append(trace, e) }
		f(t, NewStriped(o), &trace)
	})
}

func step(t *testing.T, s mtEngine, op oplog.Op, want Verdict) Decision {
	t.Helper()
	d := s.Step(op)
	if d.Verdict != want {
		t.Fatalf("%v: got %+v, want %v", op, d, want)
	}
	return d
}

// Fig. 5 without the abort: T3 has only read y, so nothing is ordered
// after it when W3[x] meets T2's larger first element. TS(3) is raised
// in place to <3,*> — the vector Abort's reseed would give the restart —
// and the write is accepted.
func TestRaiseInPlace(t *testing.T) {
	bothEngines(t, Options{K: 2, StarvationAvoidance: true}, func(t *testing.T, s mtEngine, trace *[]Event) {
		for _, op := range oplog.MustParse("W1[x] W2[x] R3[y]").Ops {
			step(t, s, op, Accept)
		}
		step(t, s, oplog.W(3, "x"), Accept)
		if got := s.Vector(3).String(); got != "<3,*>" {
			t.Fatalf("TS(3) = %s, want <3,*>", got)
		}
		flushes := 0
		for _, e := range *trace {
			if e.Kind == EvFlush {
				flushes++
				if e.Txn != 3 || e.Val != 3 {
					t.Fatalf("flush event %+v, want txn 3 seeded to 3", e)
				}
			}
		}
		if flushes != 1 {
			t.Fatalf("%d flush events, want 1", flushes)
		}
	})
}

// Without StarvationAvoidance nothing is raised: the same step is the
// paper's rejection.
func TestNoRaiseWithoutStarvationAvoidance(t *testing.T) {
	bothEngines(t, Options{K: 2}, func(t *testing.T, s mtEngine, _ *[]Event) {
		for _, op := range oplog.MustParse("W1[x] W2[x] R3[y]").Ops {
			step(t, s, op, Accept)
		}
		if d := step(t, s, oplog.W(3, "x"), Reject); d.Blocker != 2 {
			t.Fatalf("blocker %d, want 2", d.Blocker)
		}
	})
}

// The tempting wrong rule flags only the holder Set(j, i) ran against.
// Here that holder is the stepper itself, so the smaller holder goes
// unflagged, and a raise of it would commit a cycle:
//
//  1. W1[a] R3[a]: T3 reads the old a.
//  2. Abort(1, 3) reseeds T1 above T3 (T1 stays WT(a)).
//  3. R1[a]: WT(a) = T1 is the larger holder, so the step is trivially
//     accepted and RT(a) moves from T3 to T1. T1 is now ordered after
//     T3 — through the vector order only, no Set ran against T3.
//  4. W1[a], commit T1.
//  5. W3[a] must be rejected with blocker 1. Accepting it (by raising
//     T3 past T1) would commit T3 → T1 (T3 read a before T1 wrote it)
//     and T1 → T3 (T1 wrote a before T3 did): a cycle.
func TestRaiseRefusedAfterSmallerHolder(t *testing.T) {
	bothEngines(t, Options{K: 2, StarvationAvoidance: true}, func(t *testing.T, s mtEngine, _ *[]Event) {
		step(t, s, oplog.W(1, "a"), Accept)
		step(t, s, oplog.R(3, "a"), Accept)
		s.Abort(1, 3)
		step(t, s, oplog.R(1, "a"), Accept)
		step(t, s, oplog.W(1, "a"), Accept)
		s.Commit(1)
		if d := step(t, s, oplog.W(3, "a"), Reject); d.Blocker != 1 {
			t.Fatalf("blocker %d, want 1", d.Blocker)
		}
	})
}

// A line-9 slot-in read orders the reader after WT(x), so it must flag
// WT(x) even though the reader does not become a holder:
//
//  1. R1[x] W2[x]; Abort(3, 2) reseeds T3 above T2 with no step
//     ordered after T2.
//  2. R3[z] W4[z] orders T4 after T3, so T3 is flagged.
//  3. Abort(1, 3) reseeds T1 (still RT(x)) above everything.
//  4. R3[x] fails Set(T1, T3) and T3 cannot be raised, so it slots in
//     after WT(x) = T2 and before RT(x) = T1.
//  5. W2[z] must be rejected with blocker 4. Raising T2 past T4 would
//     commit T2 → T3 (T3 read T2's x) and T3 → T2 (T3 read z before T2
//     wrote it): a cycle.
func TestSlotInReadFlagsWriter(t *testing.T) {
	bothEngines(t, Options{K: 2, StarvationAvoidance: true}, func(t *testing.T, s mtEngine, _ *[]Event) {
		step(t, s, oplog.R(1, "x"), Accept)
		step(t, s, oplog.W(2, "x"), Accept)
		s.Abort(3, 2)
		step(t, s, oplog.R(3, "z"), Accept)
		step(t, s, oplog.W(4, "z"), Accept)
		s.Abort(1, 3)
		step(t, s, oplog.R(3, "x"), Accept)
		if d := step(t, s, oplog.W(2, "z"), Reject); d.Blocker != 4 {
			t.Fatalf("blocker %d, want 4", d.Blocker)
		}
	})
}

// A write the Thomas rule ignores is ordered after RT(x), so it must flag
// RT(x):
//
//  1. R2[x] W3[x]; Abort(2, 3) reseeds T2 (still RT(x)) above T3.
//  2. Abort(4, 2) reseeds T4 above T2; R4[z] W5[z] then flags T4.
//  3. Abort(3, 5) reseeds T3 (still WT(x)) above everything.
//  4. W4[x] fails Set(T3, T4) and T4 cannot be raised, so it is ignored:
//     after RT(x) = T2, before WT(x) = T3.
//  5. W2[z] must be rejected with blocker 5. Raising T2 past T5 would
//     commit T2 → T4 (T2 read x before T4 wrote it) and T4 → T2 (T4
//     read z before T2 wrote it): a cycle.
func TestThomasIgnoredWriteFlagsReader(t *testing.T) {
	opts := Options{K: 2, StarvationAvoidance: true, ThomasWriteRule: true}
	bothEngines(t, opts, func(t *testing.T, s mtEngine, _ *[]Event) {
		step(t, s, oplog.R(2, "x"), Accept)
		step(t, s, oplog.W(3, "x"), Accept)
		s.Abort(2, 3)
		s.Abort(4, 2)
		step(t, s, oplog.R(4, "z"), Accept)
		step(t, s, oplog.W(5, "z"), Accept)
		s.Abort(3, 5)
		step(t, s, oplog.W(4, "x"), AcceptIgnored)
		if d := step(t, s, oplog.W(2, "z"), Reject); d.Blocker != 5 {
			t.Fatalf("blocker %d, want 5", d.Blocker)
		}
	})
}
