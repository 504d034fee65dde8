package sched_test

import (
	"errors"
	"testing"

	"repro/internal/classify"
	"repro/internal/engine"
	"repro/internal/history"
	"repro/internal/sched"
	"repro/internal/sgt"
	"repro/internal/storage"
	"repro/internal/tsto"
)

// TestImmediateModeWWGuard pins the lost-update fix the schedule
// explorer found (internal/explore) on the mix-3x2 workload: in
// immediate mode, WT(x) is published at write time but data only at
// commit, so two live transactions holding accepted writes on the same
// item publish in commit order — which inverts the decided write order
// for one of them. The serving order below used to commit all three
// transactions with the committed history
//
//	R3[a] R2[b] W2[a] R1[a] W3[a] W1[b]
//
// which is cyclic (T3 -> T2 -> T1 -> T3): T3 read the original a, T1
// read T2's a, yet T3's stale write published last. The guard aborts
// the second live writer instead.
func TestImmediateModeWWGuard(t *testing.T) {
	builds := map[string]func(*storage.Store) sched.Scheduler{
		"coarse": func(s *storage.Store) sched.Scheduler {
			return sched.NewMT(s, sched.MTOptions{Core: engine.Options{K: 2}})
		},
		"striped": func(s *storage.Store) sched.Scheduler {
			return sched.NewMTStriped(s, sched.MTOptions{Core: engine.Options{K: 2}})
		},
		// The two baselines that publish WT(x) at write time had the same
		// hole until PR 22 (T2's write was admitted, <nil>).
		"tsto": func(s *storage.Store) sched.Scheduler { return tsto.New(s, tsto.Options{}) },
		"sgt":  func(s *storage.Store) sched.Scheduler { return sgt.New(s) },
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			store := storage.New()
			store.Set("a", 10)
			store.Set("b", 20)
			rec := history.Wrap(build(store))

			// T1: R a, W b; T2: W a, R b; T3: R a, W a — served in the
			// explorer's failing order.
			rec.Begin(3)
			if _, err := rec.Read(3, "a"); err != nil {
				t.Fatalf("R3(a): %v", err)
			}
			if err := rec.Write(3, "a", 300); err != nil {
				t.Fatalf("W3(a): %v", err)
			}
			rec.Begin(2)
			err := rec.Write(2, "a", 200)
			if err == nil {
				t.Fatal("W2(a) accepted with T3's write to a still uncommitted")
			}
			var ae *sched.AbortError
			if !errors.As(err, &ae) || ae.Blocker != 3 {
				t.Fatalf("W2(a) error %v, want abort with blocker 3", err)
			}
			rec.Abort(2)

			// T2 retries after T3 commits; everything then serializes.
			if err := rec.Commit(3); err != nil {
				t.Fatalf("C3: %v", err)
			}
			rec.Begin(2)
			if err := rec.Write(2, "a", 201); err != nil {
				t.Fatalf("retry W2(a): %v", err)
			}
			if _, err := rec.Read(2, "b"); err != nil {
				t.Fatalf("retry R2(b): %v", err)
			}
			if err := rec.Commit(2); err != nil {
				t.Fatalf("retry C2: %v", err)
			}
			rec.Begin(1)
			if _, err := rec.Read(1, "a"); err != nil {
				t.Fatalf("R1(a): %v", err)
			}
			if err := rec.Write(1, "b", 100); err != nil {
				t.Fatalf("W1(b): %v", err)
			}
			if err := rec.Commit(1); err != nil {
				t.Fatalf("C1: %v", err)
			}

			l := rec.CommittedLog()
			if !classify.DSR(l) {
				t.Fatalf("committed history not DSR: %s", l)
			}
			if v := store.Get("a"); v != 201 {
				t.Fatalf("final a = %d, want T2's 201 (last decided writer)", v)
			}
		})
	}
}

// TestImmediateModeOwnRewrite makes sure the guard does not misfire on
// a transaction rewriting its own item or writing after a committed
// writer.
func TestImmediateModeOwnRewrite(t *testing.T) {
	store := storage.New()
	store.Set("a", 1)
	m := sched.NewMT(store, sched.MTOptions{Core: engine.Options{K: 2}})
	m.Begin(1)
	if err := m.Write(1, "a", 2); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := m.Write(1, "a", 3); err != nil {
		t.Fatalf("own rewrite aborted: %v", err)
	}
	if err := m.Commit(1); err != nil {
		t.Fatalf("commit: %v", err)
	}
	m.Begin(2)
	if err := m.Write(2, "a", 4); err != nil {
		t.Fatalf("write after committed writer aborted: %v", err)
	}
	if err := m.Commit(2); err != nil {
		t.Fatalf("commit 2: %v", err)
	}
}
