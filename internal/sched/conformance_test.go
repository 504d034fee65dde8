package sched_test

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/dmt"
	"repro/internal/engine"
	"repro/internal/interval"
	"repro/internal/lock"
	"repro/internal/mvmt"
	"repro/internal/occ"
	"repro/internal/sched"
	"repro/internal/sgt"
	"repro/internal/storage"
	"repro/internal/tsto"
)

// TestStrayAttemptContract pins the contract txn.Runtime relies on: an
// attempt abandoned by a timeout or deadline leaves a straggler
// goroutine behind, so a scheduler sees operations on transactions
// that never began, were already aborted, or were re-begun meanwhile.
// No scheduler may panic on such a sequence; an operation on a dead
// incarnation is answered with a plain abort that names no blocker
// (the contract sched.Scheduler's doc states). One table over every
// constructor of the package and every baseline behind the facade, so
// a new family (or lifecycle) cannot ship without it.
func TestStrayAttemptContract(t *testing.T) {
	mt := func(deferred bool) sched.MTOptions {
		return sched.MTOptions{Core: engine.Options{K: 2, StarvationAvoidance: true}, DeferWrites: deferred}
	}
	builds := []struct {
		name  string
		build func(*storage.Store) sched.Scheduler
	}{
		{"mt", func(s *storage.Store) sched.Scheduler { return sched.NewMT(s, mt(false)) }},
		{"mt-deferred", func(s *storage.Store) sched.Scheduler { return sched.NewMT(s, mt(true)) }},
		{"striped-immediate", func(s *storage.Store) sched.Scheduler { return sched.NewMTStriped(s, mt(false)) }},
		{"striped-deferred", func(s *storage.Store) sched.Scheduler { return sched.NewMTStriped(s, mt(true)) }},
		{"composite", func(s *storage.Store) sched.Scheduler { return sched.NewComposite(s, 2, engine.Options{}) }},
		{"composite-coarse", func(s *storage.Store) sched.Scheduler {
			return sched.Reference(sched.NewComposite(s, 2, engine.Options{}), s)
		}},
		{"nested", func(s *storage.Store) sched.Scheduler {
			return sched.NewNested(s, sched.NestedOptions{Ks: []int{2, 2}})
		}},
		{"nested-coarse", func(s *storage.Store) sched.Scheduler {
			return sched.Reference(sched.NewNested(s, sched.NestedOptions{Ks: []int{2, 2}}), s)
		}},
		{"dmt", func(s *storage.Store) sched.Scheduler { return sched.NewDMT(s, dmt.Options{K: 2, Sites: 2}) }},
		{"dmt-coarse", func(s *storage.Store) sched.Scheduler {
			return sched.Reference(sched.NewDMT(s, dmt.Options{K: 2, Sites: 2}), s)
		}},
		{"tsto", func(s *storage.Store) sched.Scheduler { return tsto.New(s, tsto.Options{}) }},
		{"occ", func(s *storage.Store) sched.Scheduler { return occ.New(s) }},
		{"sgt", func(s *storage.Store) sched.Scheduler { return sgt.New(s) }},
		{"lock", func(s *storage.Store) sched.Scheduler { return lock.NewTwoPL(s) }},
		{"interval", func(s *storage.Store) sched.Scheduler { return interval.New(s, interval.Options{}) }},
		{"mvmt", func(s *storage.Store) sched.Scheduler { return mvmt.New(s, mvmt.Options{K: 2}) }},
		{"adaptive", func(s *storage.Store) sched.Scheduler {
			return adaptive.New(s, adaptive.Options{InitialK: 1, MaxK: 2})
		}},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			store := storage.New()
			s := b.build(store)
			plainAbort := func(what string, err error) {
				t.Helper()
				var ae *sched.AbortError
				if !errors.As(err, &ae) || ae.Blocker != 0 || ae.BlockerFinished {
					t.Fatalf("%s: %v, want a plain *sched.AbortError naming no blocker", what, err)
				}
			}
			strayOps := func(stage string, txn int) {
				t.Helper()
				_, err := s.Read(txn, "x")
				plainAbort("read "+stage, err)
				plainAbort("write "+stage, s.Write(txn, "x", 1))
				plainAbort("commit "+stage, s.Commit(txn))
			}
			// Operation without Begin.
			strayOps("without Begin", 1)
			s.Abort(1) // the runtime still aborts after the failed attempt

			// Operation, then commit, after Abort — and a second Abort.
			s.Begin(2)
			if _, err := s.Read(2, "x"); err != nil {
				t.Fatalf("live read: %v", err)
			}
			if err := s.Write(2, "y", 2); err != nil {
				t.Fatalf("live write: %v", err)
			}
			s.Abort(2)
			strayOps("after Abort", 2)
			s.Abort(2)
			s.Abort(2)
			if got := store.Get("y"); got != 0 {
				t.Fatalf("aborted write published: y = %d", got)
			}

			// Abort, then re-begin under the same id: the new incarnation
			// runs to commit and publishes.
			s.Begin(2)
			if _, err := s.Read(2, "x"); err != nil {
				t.Fatalf("re-begun read: %v", err)
			}
			if err := s.Write(2, "y", 7); err != nil {
				t.Fatalf("re-begun write: %v", err)
			}
			if err := s.Commit(2); err != nil {
				t.Fatalf("re-begun commit: %v", err)
			}
			if got := store.Get("y"); got != 7 {
				t.Fatalf("y = %d after the re-begun incarnation committed, want 7", got)
			}
			strayOps("after Commit", 2)

			// A straggler racing the live retry loop: whatever it meets —
			// no incarnation, the old one, the new one — it gets a value
			// or an abort, never a panic (and, under -race, no data race).
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					var err error
					switch i % 3 {
					case 0:
						_, err = s.Read(3, "z")
					case 1:
						err = s.Write(3, "z", int64(i))
					default:
						err = s.Commit(3)
					}
					if err != nil && !errors.Is(err, sched.ErrAbort) {
						t.Errorf("straggler op %d: %v, want nil or an abort", i, err)
						return
					}
				}
			}()
			for i := 0; i < 100; i++ {
				s.Begin(3)
				s.Read(3, "z")
				s.Abort(3)
			}
			wg.Wait()
			s.Abort(3)
		})
	}
}
