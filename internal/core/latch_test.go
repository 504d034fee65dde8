package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/intern"
)

// boundTable returns a table whose by-name methods resolve items
// through a fresh interner.
func boundTable(n int) *LatchTable {
	lt := NewLatchTable(n)
	lt.BindInterner(intern.New())
	return lt
}

// TestLatchTableOneStripingRule: a name and its interned id latch the
// same stripe, and a table that was never bound refuses names instead
// of guessing a stripe for them.
func TestLatchTableOneStripingRule(t *testing.T) {
	names := intern.New()
	lt := NewLatchTable(8)
	lt.BindInterner(names)
	for i := 0; i < 40; i++ {
		x := fmt.Sprintf("k%02d", i)
		if got, want := lt.StripeOf(x), lt.StripeOfID(names.ID(x)); got != want {
			t.Fatalf("StripeOf(%q) = %d, StripeOfID = %d", x, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("by-name latch on an unbound table did not panic")
		}
	}()
	NewLatchTable(8).Lock("x")
}

func TestLatchTableRoundsUp(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {64, 64}, {100, 128},
	} {
		if got := NewLatchTable(tc.n).Stripes(); got != tc.want {
			t.Errorf("NewLatchTable(%d).Stripes() = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestLatchTableAliasedItems locks item sets that collide on the same
// stripe in one call: the dedup must keep the acquisition from
// self-deadlocking.
func TestLatchTableAliasedItems(t *testing.T) {
	lt := boundTable(2) // every item lands on stripe 0 or 1
	items := make([]string, 16)
	for i := range items {
		items[i] = fmt.Sprintf("item%03d", i)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			unlock := lt.Lock(items...)
			unlock()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("aliased multi-item Lock deadlocked")
	}
}

// TestLatchTableMutualExclusion hammers one counter per stripe from
// many goroutines; under -race this also proves the latch establishes
// happens-before edges.
func TestLatchTableMutualExclusion(t *testing.T) {
	lt := boundTable(4)
	counters := make([]int, lt.Stripes())
	items := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	const workers, rounds = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				x := items[rng.Intn(len(items))]
				unlock := lt.Lock(x)
				counters[lt.StripeOf(x)]++
				unlock()
			}
		}(int64(w))
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != workers*rounds {
		t.Fatalf("lost increments: total %d, want %d", total, workers*rounds)
	}
}

// TestLatchTableNoLostWakeups parks many goroutines on ONE stripe and
// releases them one by one; if a wakeup were ever lost, a waiter would
// park forever and the watchdog fires.
func TestLatchTableNoLostWakeups(t *testing.T) {
	lt := boundTable(1)
	const waiters = 32
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				unlock := lt.Lock("hot")
				unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a waiter never woke up")
	}
}

// latchStorm is the shared property: N goroutines acquire random
// overlapping item sets in a loop; the run must finish within the
// watchdog deadline (deadlock-freedom) with all acquisitions balanced.
func latchStorm(t *testing.T, stripes, workers, itemsN, setMax, rounds int, seed int64) {
	t.Helper()
	lt := boundTable(stripes)
	items := make([]string, itemsN)
	for i := range items {
		items[i] = fmt.Sprintf("k%04d", i)
	}
	held := make([]int32, lt.Stripes()) // guarded by the latch itself
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				n := 1 + rng.Intn(setMax)
				set := make([]string, n)
				for i := range set {
					set[i] = items[rng.Intn(len(items))]
				}
				unlock := lt.Lock(set...)
				seen := map[int]bool{}
				for _, x := range set {
					s := lt.StripeOf(x)
					if seen[s] {
						continue
					}
					seen[s] = true
					if held[s]++; held[s] != 1 {
						panic("latch held by two goroutines")
					}
				}
				for s := range seen {
					held[s]--
				}
				unlock()
			}
		}(seed + int64(w))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("latch storm deadlocked (watchdog)")
	}
}

func TestLatchTableStorm(t *testing.T) {
	latchStorm(t, 8, 12, 40, 6, 300, 1)
	latchStorm(t, 1, 8, 10, 4, 200, 2) // total aliasing: one stripe
}

// FuzzLatchTable derives a storm shape from the fuzz input: random
// overlap, random stripe aliasing, bounded wait asserted by watchdog.
func FuzzLatchTable(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint8(12), uint8(3), int64(42))
	f.Add(uint8(1), uint8(8), uint8(3), uint8(3), int64(7))
	f.Add(uint8(64), uint8(2), uint8(50), uint8(8), int64(-1))
	f.Fuzz(func(t *testing.T, stripes, workers, itemsN, setMax uint8, seed int64) {
		s := int(stripes%64) + 1
		w := int(workers%8) + 2
		n := int(itemsN%64) + 1
		m := int(setMax%8) + 1
		latchStorm(t, s, w, n, m, 50, seed)
	})
}
