package sched_test

import (
	"errors"
	"testing"

	"repro/internal/dmt"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/storage"
)

// TestAbortReportsBlockerState drives every engine adapter into a
// rejection against T2 and checks AbortError.BlockerFinished: false
// while T2 is in flight, true once it has committed.
//
// The history orders T3 before T1 before T2 and then asks for T3 after
// T2: T3 reads a; T1 overwrites a and b and commits (T3 -> T1); T2 reads
// b (T1 -> T2) and x; T3 then writes x, which needs RT(x) = T2 -> T3.
// Composite runs the same history but names no blocker (the reject
// there is "every subprotocol stopped"), so its state stays unknown.
func TestAbortReportsBlockerState(t *testing.T) {
	builds := []struct {
		name         string
		build        func(*storage.Store) sched.Scheduler
		namesBlocker bool
	}{
		{"mt", func(s *storage.Store) sched.Scheduler {
			return sched.NewMT(s, sched.MTOptions{Core: engine.Options{K: 2}})
		}, true},
		{"mt-deferred", func(s *storage.Store) sched.Scheduler {
			return sched.NewMT(s, sched.MTOptions{Core: engine.Options{K: 2}, DeferWrites: true})
		}, true},
		{"striped", func(s *storage.Store) sched.Scheduler {
			return sched.NewMTStriped(s, sched.MTOptions{Core: engine.Options{K: 2}})
		}, true},
		{"striped-deferred", func(s *storage.Store) sched.Scheduler {
			return sched.NewMTStriped(s, sched.MTOptions{Core: engine.Options{K: 2}, DeferWrites: true})
		}, true},
		{"nested", func(s *storage.Store) sched.Scheduler {
			return sched.NewNested(s, sched.NestedOptions{Ks: []int{2, 2}})
		}, true},
		{"dmt", func(s *storage.Store) sched.Scheduler {
			return sched.NewDMT(s, dmt.Options{K: 2, Sites: 2})
		}, true},
		{"composite", func(s *storage.Store) sched.Scheduler {
			return sched.NewComposite(s, 1, engine.Options{})
		}, false},
	}
	for _, b := range builds {
		for _, committed := range []bool{false, true} {
			name := b.name + "/blocker-in-flight"
			if committed {
				name = b.name + "/blocker-committed"
			}
			t.Run(name, func(t *testing.T) {
				s := b.build(storage.New())
				must := func(err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
				}
				read := func(txn int, item string) {
					t.Helper()
					_, err := s.Read(txn, item)
					must(err)
				}
				s.Begin(3)
				read(3, "a")
				s.Begin(1)
				must(s.Write(1, "a", 1))
				must(s.Write(1, "b", 1))
				must(s.Commit(1))
				s.Begin(2)
				read(2, "b")
				read(2, "x")
				if committed {
					must(s.Commit(2))
				}
				// Immediate mode rejects at the write, deferred at commit.
				err := s.Write(3, "x", 3)
				if err == nil {
					err = s.Commit(3)
				}
				var ae *sched.AbortError
				if !errors.As(err, &ae) {
					t.Fatalf("T3's write of x: %v, want an abort", err)
				}
				if !b.namesBlocker {
					if ae.Blocker != 0 || ae.BlockerFinished {
						t.Fatalf("abort %+v, want no blocker and unknown state", ae)
					}
					return
				}
				if ae.Blocker != 2 || ae.BlockerFinished != committed {
					t.Fatalf("abort %+v, want blocker 2 with BlockerFinished=%v", ae, committed)
				}
			})
		}
	}
}
