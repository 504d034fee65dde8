package adaptive

import (
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

func TestDefaults(t *testing.T) {
	a := New(storage.New(), Options{})
	if a.K() != 3 {
		t.Fatalf("K = %d, want default 3", a.K())
	}
	if a.Name() != "Adaptive-MT(k=3)" {
		t.Fatalf("Name = %q", a.Name())
	}
}

func TestBasicTransaction(t *testing.T) {
	st := storage.New()
	a := New(st, Options{InitialK: 2})
	a.Begin(1)
	if _, err := a.Read(1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(1, "x", 9); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(1); err != nil {
		t.Fatal(err)
	}
	if st.Get("x") != 9 {
		t.Fatal("write lost")
	}
}

func TestGrowsUnderAbortPressure(t *testing.T) {
	st := storage.New()
	a := New(st, Options{
		InitialK: 1, MaxK: 7, Window: 10,
		GrowAbove: 0.2,
		Core:      engine.Options{StarvationAvoidance: true},
	})
	// Manufacture aborts: every transaction begins, then aborts.
	for i := 1; i <= 40; i++ {
		a.Begin(i)
		if _, err := a.Read(i, "x"); err == nil {
			if i%2 == 0 {
				a.Abort(i) // counted as aborted
				continue
			}
			a.Commit(i)
		}
	}
	if a.K() <= 1 {
		t.Fatalf("K = %d, expected growth under 50%% abort rate", a.K())
	}
	if a.Switches() == 0 {
		t.Fatal("no switches recorded")
	}
	if h := a.History(); len(h) < 2 || h[0] != 1 {
		t.Fatalf("history = %v", h)
	}
}

func TestShrinksWhenQuiet(t *testing.T) {
	st := storage.New()
	a := New(st, Options{
		InitialK: 7, MinK: 1, Window: 10, ShrinkBelow: 0.05,
		Core: engine.Options{StarvationAvoidance: true},
	})
	for i := 1; i <= 40; i++ {
		a.Begin(i)
		if _, err := a.Read(i, "x"); err != nil {
			t.Fatal(err)
		}
		if err := a.Commit(i); err != nil {
			t.Fatal(err)
		}
	}
	if a.K() >= 7 {
		t.Fatalf("K = %d, expected shrink with zero aborts", a.K())
	}
}

func TestSwitchWaitsForQuiescence(t *testing.T) {
	st := storage.New()
	a := New(st, Options{
		InitialK: 1, Window: 2, GrowAbove: 0.1,
		Core: engine.Options{StarvationAvoidance: true},
	})
	// T100 stays live across the epoch boundary.
	a.Begin(100)
	if _, err := a.Read(100, "keep"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		a.Begin(i)
		a.Abort(i)
	}
	if a.K() != 1 {
		t.Fatalf("switched to %d while a transaction was live", a.K())
	}
	if err := a.Commit(100); err != nil {
		t.Fatal(err)
	}
	if a.K() == 1 {
		t.Fatal("pending switch not applied at quiescence")
	}
}

func TestRuntimeIntegration(t *testing.T) {
	rep := sim.Run(sim.Config{
		NewScheduler: func(st *storage.Store) sched.Scheduler {
			return New(st, Options{
				InitialK: 1, Window: 16,
				Core: engine.Options{StarvationAvoidance: true},
			})
		},
		Specs: workload.Config{
			Txns: 120, OpsPerTxn: 3, Items: 8, ReadFraction: 0.5, Seed: 3,
		}.Generate(),
		Workers:     6,
		MaxAttempts: 300,
		Backoff:     10 * time.Microsecond,
	})
	if rep.Committed != 120 {
		t.Fatalf("committed = %d", rep.Committed)
	}
	if rep.Store == nil {
		t.Fatal("no store")
	}
}

func TestAbortErrorPropagation(t *testing.T) {
	st := storage.New()
	// Fig. 5 shape through the adaptive wrapper. StarvationAvoidance
	// stays off: with it, T3 (nothing ordered after it) is raised in
	// place and its write is accepted.
	a := New(st, Options{InitialK: 2})
	a.Begin(1)
	a.Write(1, "x", 1)
	a.Commit(1)
	a.Begin(3)
	if _, err := a.Read(3, "y"); err != nil {
		t.Fatal(err)
	}
	a.Begin(2)
	a.Write(2, "x", 2)
	a.Commit(2)
	if err := a.Write(3, "x", 3); !errors.Is(err, sched.ErrAbort) {
		t.Fatalf("want abort, got %v", err)
	}
	a.Abort(3)
}
