package txn

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/storage"
)

func mt(st *storage.Store) sched.Scheduler {
	return sched.NewMT(st, sched.MTOptions{
		Core: engine.Options{K: 3, StarvationAvoidance: true},
	})
}

func TestExecCommits(t *testing.T) {
	st := storage.New()
	st.Set("x", 5)
	rt := &Runtime{Sched: mt(st)}
	res := rt.Exec(Spec{ID: 1, Ops: []Op{R("x"), W("y")}})
	if !res.Committed || res.Attempts != 1 {
		t.Fatalf("res = %+v", res)
	}
	if v, ok := res.Reads.Get("x"); !ok || v != 5 {
		t.Fatalf("reads = %v", res.Reads)
	}
	if _, ok := res.Reads.Get("y"); ok {
		t.Fatalf("reads = %v: y was written, never read", res.Reads)
	}
	if st.Get("y") != 1 { // default value: txn id
		t.Fatalf("y = %d", st.Get("y"))
	}
}

func TestValueFunction(t *testing.T) {
	st := storage.New()
	st.Set("x", 10)
	rt := &Runtime{Sched: mt(st)}
	res := rt.Exec(Spec{
		ID:  1,
		Ops: []Op{R("x"), W("x")},
		Value: func(item string, reads map[string]int64) int64 {
			return reads["x"] + 1
		},
	})
	if !res.Committed {
		t.Fatal("not committed")
	}
	if st.Get("x") != 11 {
		t.Fatalf("x = %d", st.Get("x"))
	}
}

func TestMaxAttemptsGivesUp(t *testing.T) {
	// An always-aborting scheduler.
	rt := &Runtime{Sched: alwaysAbort{}, MaxAttempts: 3}
	res := rt.Exec(Spec{ID: 1, Ops: []Op{R("x")}})
	if res.Committed || res.Attempts != 3 {
		t.Fatalf("res = %+v", res)
	}
}

type alwaysAbort struct{}

func (alwaysAbort) Name() string     { return "abort" }
func (alwaysAbort) Begin(int)        {}
func (alwaysAbort) Abort(int)        {}
func (alwaysAbort) Commit(int) error { return sched.Abort(0, 0, "always") }
func (alwaysAbort) Read(txn int, item string) (int64, error) {
	return 0, sched.Abort(txn, 0, "always")
}
func (alwaysAbort) Write(txn int, item string, v int64) error {
	return sched.Abort(txn, 0, "always")
}

func TestPoolRunsAll(t *testing.T) {
	st := storage.New()
	rt := &Runtime{Sched: mt(st)}
	var specs []Spec
	for i := 1; i <= 40; i++ {
		specs = append(specs, Spec{ID: i, Ops: []Op{R("a"), W("b")}})
	}
	results := rt.Pool(specs, 8)
	if len(results) != 40 {
		t.Fatalf("len = %d", len(results))
	}
	for _, r := range results {
		if !r.Committed {
			t.Fatalf("txn %d gave up: %+v", r.ID, r)
		}
	}
}

func TestPoolSingleWorkerFloor(t *testing.T) {
	st := storage.New()
	rt := &Runtime{Sched: mt(st)}
	res := rt.Pool([]Spec{{ID: 1, Ops: []Op{W("x")}}}, 0)
	if len(res) != 1 || !res[0].Committed {
		t.Fatalf("res = %+v", res)
	}
}

func TestPanicOnUnexpectedError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-abort error")
		}
	}()
	rt := &Runtime{Sched: weirdError{}}
	rt.Exec(Spec{ID: 1, Ops: []Op{R("x")}})
}

type weirdError struct{ alwaysAbort }

func (weirdError) Read(txn int, item string) (int64, error) {
	return 0, errInternal
}

var errInternal = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }
