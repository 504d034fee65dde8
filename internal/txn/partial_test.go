package txn

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/storage"
)

// buildBlockedT3 prepares the Fig. 5 shape on a fresh scheduler: T1 and
// T2 write x; T3 will read y and meet T2's larger timestamp writing x.
func buildBlockedT3(t *testing.T, st *storage.Store) *sched.MT {
	t.Helper()
	m := sched.NewMT(st, sched.MTOptions{Core: engine.Options{K: 2, StarvationAvoidance: true}})
	for _, w := range []int{1, 2} {
		m.Begin(w)
		if err := m.Write(w, "x", int64(w)); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(w); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// readAfterOnce returns a Value function that, the first time it is
// asked, has transaction 4 read item and commit: an accepted step
// ordered after T3's own read of item, so T3 has a successor when its
// write meets a larger timestamp — it is rejected, not raised in place.
// Every call returns v.
func readAfterOnce(t *testing.T, m *sched.MT, item string, v int64) func(string, map[string]int64) int64 {
	done := false
	return func(string, map[string]int64) int64 {
		if !done {
			done = true
			m.Begin(4)
			if _, err := m.Read(4, item); err != nil {
				t.Errorf("T4 read %s: %v", item, err)
			}
			if err := m.Commit(4); err != nil {
				t.Errorf("T4 commit: %v", err)
			}
		}
		return v
	}
}

func TestPartialRollbackResumesMidTransaction(t *testing.T) {
	st := storage.New()
	m := buildBlockedT3(t, st)
	rt := &Runtime{Sched: m, PartialRollback: true, Store: st, MaxAttempts: 10}
	res := rt.Exec(Spec{ID: 3, Ops: []Op{R("y"), W("x")}, Value: readAfterOnce(t, m, "y", 3)})
	if !res.Committed {
		t.Fatalf("not committed: %+v", res)
	}
	if res.PartialResumes != 1 {
		t.Fatalf("PartialResumes = %d, want 1", res.PartialResumes)
	}
	// Full restart would re-execute both ops; the partial resume repeats
	// only the failed write: 2 (first attempt) + 1 (resumed write).
	if res.OpsExecuted != 3 {
		t.Fatalf("OpsExecuted = %d, want 3", res.OpsExecuted)
	}
	if st.Get("x") != 3 {
		t.Fatalf("x = %d", st.Get("x"))
	}
}

func TestPartialRollbackFallsBackWhenReadStale(t *testing.T) {
	st := storage.New()
	m := buildBlockedT3(t, st)
	rt := &Runtime{Sched: m, PartialRollback: true, Store: st, MaxAttempts: 10}
	// Wrap the value function to commit a conflicting write to y right
	// after the first failure, invalidating the kept read.
	first := true
	res := rt.Exec(Spec{
		ID:  3,
		Ops: []Op{R("y"), W("x")},
		Value: func(item string, reads map[string]int64) int64 {
			if first {
				first = false
				// Sneak a committed write to y between attempt and retry.
				m.Begin(99)
				if err := m.Write(99, "y", 7); err == nil {
					m.Commit(99)
				} else {
					m.Abort(99)
				}
			}
			return reads["y"] + 1
		},
	})
	if !res.Committed {
		t.Fatalf("not committed: %+v", res)
	}
	if res.PartialResumes != 0 {
		t.Fatalf("stale read should force a full restart, got %d resumes", res.PartialResumes)
	}
	// The committed value must reflect the NEW y (7 + 1), proving the
	// full restart re-read it.
	if st.Get("x") != 8 {
		t.Fatalf("x = %d, want 8", st.Get("x"))
	}
}

func TestPartialRollbackDisabledWithoutStore(t *testing.T) {
	st := storage.New()
	m := buildBlockedT3(t, st)
	rt := &Runtime{Sched: m, PartialRollback: true, MaxAttempts: 10} // no Store
	res := rt.Exec(Spec{ID: 3, Ops: []Op{R("y"), W("x")}, Value: readAfterOnce(t, m, "y", 3)})
	if !res.Committed || res.PartialResumes != 0 {
		t.Fatalf("res = %+v", res)
	}
	// The first attempt must really have aborted, or the fallback to a
	// full restart was never exercised: 2 ops, then both again.
	if res.Attempts != 2 || res.OpsExecuted != 4 {
		t.Fatalf("Attempts = %d, OpsExecuted = %d, want 2 and 4", res.Attempts, res.OpsExecuted)
	}
}

func TestPartialRollbackNeedsStarvationAvoidance(t *testing.T) {
	st := storage.New()
	m := sched.NewMT(st, sched.MTOptions{Core: engine.Options{K: 2}}) // fix off
	for _, w := range []int{1, 2} {
		m.Begin(w)
		m.Write(w, "x", int64(w))
		m.Commit(w)
	}
	m.Begin(3)
	if _, err := m.Read(3, "y"); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(3, "x", 3); err == nil {
		t.Fatal("setup: write should be rejected")
	}
	if m.TryPartialRestart(3, []string{"y"}) {
		t.Fatal("partial restart must require the starvation fix")
	}
}

func TestPartialRollbackReducesWastedOps(t *testing.T) {
	// Long transactions with a contended tail item: partial rollback
	// should replay fewer operations than full restarts on the same
	// deterministic single-threaded conflict pattern.
	run := func(partial bool) int {
		st := storage.New()
		m := sched.NewMT(st, sched.MTOptions{Core: engine.Options{K: 9, StarvationAvoidance: true}})
		// Pre-commit writers on the tail item so the victim gets blocked.
		for _, w := range []int{101, 102} {
			m.Begin(w)
			m.Write(w, "tail", int64(w))
			m.Commit(w)
		}
		rt := &Runtime{Sched: m, PartialRollback: partial, Store: st, MaxAttempts: 20}
		ops := []Op{R("a"), R("b"), R("c"), R("d"), W("tail")}
		res := rt.Exec(Spec{ID: 3, Ops: ops, Value: readAfterOnce(t, m, "a", 3)})
		if !res.Committed {
			return 1 << 30
		}
		return res.OpsExecuted
	}
	full := run(false)
	part := run(true)
	if part >= full {
		t.Fatalf("partial rollback executed %d ops, full restart %d", part, full)
	}
}
