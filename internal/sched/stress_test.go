package sched_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dmt"
	"repro/internal/engine"
	"repro/internal/oplog"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

// zipfItems returns a seeded zipf item picker over n items (heavily
// skewed: the storm concentrates on a handful of hot items).
func zipfItems(seed int64, n int) func(rng *rand.Rand) string {
	return func(rng *rand.Rand) string {
		z := rand.NewZipf(rng, 1.3, 1, uint64(n-1))
		return workload.ItemName(int(z.Uint64()))
	}
}

// stormScheduler is the protocol surface the storm drives.
type stormScheduler interface {
	sched.Scheduler
}

// runStorm fires workers goroutines, each running attempts
// transactions with globally unique ids against s: a couple of reads
// and writes over zipf-skewed items, then commit; protocol aborts
// retry as a NEW transaction (fresh id), so the committed id set is
// unambiguous. Returns the set of committed transaction ids.
func runStorm(t *testing.T, s stormScheduler, workers, attempts, items int, seed int64) map[int]bool {
	t.Helper()
	var next atomic.Int64
	pick := zipfItems(seed, items)
	var mu sync.Mutex
	committed := make(map[int]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wseed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(wseed))
			for a := 0; a < attempts; a++ {
				id := int(next.Add(1))
				s.Begin(id)
				ok := true
				nops := 2 + rng.Intn(3)
				for o := 0; o < nops && ok; o++ {
					x := pick(rng)
					if rng.Intn(2) == 0 {
						if _, err := s.Read(id, x); err != nil {
							ok = false
						}
					} else {
						if err := s.Write(id, x, int64(id)); err != nil {
							ok = false
						}
					}
				}
				if ok && s.Commit(id) == nil {
					mu.Lock()
					committed[id] = true
					mu.Unlock()
				} else {
					s.Abort(id)
				}
			}
		}(seed + int64(w)*7919)
	}
	wg.Wait()
	if len(committed) == 0 {
		t.Fatal("storm committed nothing")
	}
	return committed
}

// assertKthColumnUnique asserts the protocol invariant the counters
// exist for: among live vectors (T_0 aside), no two share a defined
// k-th-column value.
func assertKthColumnUnique(t *testing.T, name string, k int, snap map[int]*core.Vector) {
	t.Helper()
	seen := make(map[int64]int)
	for id, v := range snap {
		if id == 0 {
			continue
		}
		e := v.Elem(k)
		if !e.Defined {
			continue
		}
		if prev, dup := seen[e.V]; dup {
			t.Fatalf("%s: k-th column value %d shared by txns %d and %d", name, e.V, prev, id)
		}
		seen[e.V] = id
	}
}

// TestStripedStressRace storms MT(k)/striped in both write modes under
// heavy zipf contention; -race checks the locking, the snapshot checks
// the k-th-column uniqueness invariant afterwards.
func TestStripedStressRace(t *testing.T) {
	for _, mode := range []struct {
		name     string
		deferred bool
	}{{"immediate", false}, {"deferred", true}} {
		for _, k := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/k%d", mode.name, k), func(t *testing.T) {
				st := storage.New()
				m := sched.NewMTStriped(st, sched.MTOptions{
					Core:        engine.Options{K: k, StarvationAvoidance: true},
					DeferWrites: mode.deferred,
				})
				runStorm(t, m, 8, 40, 24, int64(k)*31+1)
				assertKthColumnUnique(t, m.Name(), k, m.Striped().Snapshot())
			})
		}
	}
}

// TestStripedStressSerializable storms the deferred striped scheduler
// while recording every decision through the OnDecision hook (fired
// under the item latches, so per-item order is the true decision
// order), then asserts the committed log's dependency graph is acyclic
// — serializability of the storm's outcome. Conflict edges only ever
// connect same-item accesses, so the per-item ordering guarantee makes
// the graph exact.
func TestStripedStressSerializable(t *testing.T) {
	st := storage.New()
	m := sched.NewMTStriped(st, sched.MTOptions{
		Core:        engine.Options{K: 3, StarvationAvoidance: true},
		DeferWrites: true,
	})
	var mu sync.Mutex
	var decided []oplog.Op
	m.Striped().OnDecision = func(d core.Decision) {
		if d.Verdict == core.Accept {
			mu.Lock()
			decided = append(decided, d.Op)
			mu.Unlock()
		}
	}
	committed := runStorm(t, m, 8, 40, 16, 99)
	var ops []oplog.Op
	for _, op := range decided {
		if committed[op.Txn] {
			ops = append(ops, op)
		}
	}
	log := oplog.NewLog(ops...)
	g, _ := log.DependencyGraph()
	if g.HasCycle() {
		t.Fatalf("committed storm log has a dependency cycle (%d ops)", log.Len())
	}
}

// bankStorm runs concurrent transfers between accounts with retries
// and asserts the total balance is preserved — lost updates or
// half-applied transfers would break it.
func bankStorm(t *testing.T, s sched.Scheduler, seed int64) {
	t.Helper()
	const accounts, initial = 8, 1000
	names := make([]string, accounts)
	for i := range names {
		names[i] = fmt.Sprintf("acct%02d", i)
	}
	// Fund the accounts through the scheduler itself.
	s.Begin(1)
	for _, a := range names {
		if err := s.Write(1, a, initial); err != nil {
			t.Fatalf("funding write: %v", err)
		}
	}
	if err := s.Commit(1); err != nil {
		t.Fatalf("funding commit: %v", err)
	}
	var next atomic.Int64
	next.Store(1)
	var wg sync.WaitGroup
	var transferred atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(wseed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(wseed))
			for a := 0; a < 30; a++ {
				src := names[rng.Intn(accounts)]
				dst := names[rng.Intn(accounts)]
				if src == dst {
					continue
				}
				amount := int64(1 + rng.Intn(5))
				for try := 0; try < 20; try++ {
					id := int(next.Add(1))
					s.Begin(id)
					sv, err := s.Read(id, src)
					if err == nil {
						var dv int64
						dv, err = s.Read(id, dst)
						if err == nil {
							if err = s.Write(id, src, sv-amount); err == nil {
								if err = s.Write(id, dst, dv+amount); err == nil {
									err = s.Commit(id)
								}
							}
						}
					}
					if err == nil {
						transferred.Add(1)
						break
					}
					s.Abort(id)
					if !errors.Is(err, sched.ErrAbort) {
						t.Errorf("transfer failed with non-abort error: %v", err)
						break
					}
				}
			}
		}(seed + int64(w)*104729)
	}
	wg.Wait()
	if transferred.Load() == 0 {
		t.Fatal("no transfer committed")
	}
	var store *storage.Store
	switch sc := s.(type) {
	case interface{ Store() *storage.Store }:
		store = sc.Store()
	default:
		t.Fatal("scheduler does not expose its store")
	}
	if sum := store.Sum(names); sum != accounts*initial {
		t.Fatalf("%s: total balance %d, want %d (serializability violated)",
			s.Name(), sum, accounts*initial)
	}
}

// storeExposer lets bankStorm reach the store backing each adapter.
type storeExposer struct {
	sched.Scheduler
	st *storage.Store
}

func (e storeExposer) Store() *storage.Store { return e.st }

// TestBankInvariantUnderStress runs the banking storm against every
// protocol the striping touched: MT(k)/striped in both modes, MT(k⁺),
// and DMT(k).
func TestBankInvariantUnderStress(t *testing.T) {
	cases := []struct {
		name  string
		build func(st *storage.Store) sched.Scheduler
	}{
		{"striped-immediate", func(st *storage.Store) sched.Scheduler {
			return sched.NewMTStriped(st, sched.MTOptions{Core: engine.Options{K: 3, StarvationAvoidance: true}})
		}},
		{"striped-deferred", func(st *storage.Store) sched.Scheduler {
			return sched.NewMTStriped(st, sched.MTOptions{Core: engine.Options{K: 3, StarvationAvoidance: true}, DeferWrites: true})
		}},
		{"composite", func(st *storage.Store) sched.Scheduler {
			return sched.NewComposite(st, 3, engine.Options{})
		}},
		{"dmt", func(st *storage.Store) sched.Scheduler {
			return sched.NewDMT(st, dmt.Options{K: 3, Sites: 4})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := storage.New()
			bankStorm(t, storeExposer{tc.build(st), st}, 7)
		})
	}
	// The raise in place under the runtime's retry loop: an aborted
	// transfer restarts under the same id with a reseeded vector while
	// still holding the items its dead incarnation touched — the shape
	// where flagging only the larger holder lets a raise commit a cycle.
	for _, k := range []int{2, 7} {
		for _, deferred := range []bool{false, true} {
			t.Run(fmt.Sprintf("runtime/k%d/deferred=%v", k, deferred), func(t *testing.T) {
				st := storage.New()
				m := sched.NewMTStriped(st, sched.MTOptions{
					Core: engine.Options{K: k, StarvationAvoidance: true}, DeferWrites: deferred})
				runtimeBankStorm(t, m, st, int64(k))
			})
		}
	}
}

// runtimeBankStorm drives 40 000 transfers over 16 accounts through
// txn.Runtime on 4 workers, with the benchmark's 20 µs base back-off,
// and asserts every transfer committed and the total balance is
// preserved.
func runtimeBankStorm(t *testing.T, s sched.Scheduler, st *storage.Store, seed int64) {
	t.Helper()
	const accounts, initial, transfers = 16, 1000, 40000
	names := make([]string, accounts)
	for i := range names {
		names[i] = fmt.Sprintf("acct%02d", i)
		st.Set(names[i], initial)
	}
	rt := &txn.Runtime{Sched: s, Backoff: 20 * time.Microsecond, Seed: seed}
	for _, r := range rt.Pool(workload.Transfers(transfers, names, 1, seed), 4) {
		if !r.Committed {
			t.Fatalf("transfer %d did not commit: %+v", r.ID, r)
		}
	}
	if sum := st.Sum(names); sum != accounts*initial {
		t.Fatalf("%s: total balance %d, want %d (serializability violated)",
			s.Name(), sum, accounts*initial)
	}
}

// TestCompositeStressRace storms MT(k⁺) (epoch restarts included) and
// then checks each subprotocol's k-th-column uniqueness.
func TestCompositeStressRace(t *testing.T) {
	st := storage.New()
	c := sched.NewComposite(st, 2, engine.Options{})
	runStorm(t, c, 8, 30, 16, 11)
	proto := c.Protocol()
	for h := 1; h <= proto.K(); h++ {
		assertKthColumnUnique(t, fmt.Sprintf("sub %d", h), h, proto.Sub(h).Snapshot())
	}
}

// TestDMTStressRace storms DMT(k) across sites under zipf contention.
func TestDMTStressRace(t *testing.T) {
	st := storage.New()
	d := sched.NewDMT(st, dmt.Options{K: 2, Sites: 4})
	runStorm(t, d, 8, 30, 16, 13)
}
