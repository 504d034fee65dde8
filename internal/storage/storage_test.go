package storage

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestGetSetApply(t *testing.T) {
	s := New()
	if s.Get("x") != 0 {
		t.Fatal("fresh item not 0")
	}
	s.Set("x", 7)
	if s.Get("x") != 7 {
		t.Fatal("Set not visible")
	}
	v0 := s.Version()
	s.Apply(map[string]int64{"x": 1, "y": 2})
	if s.Get("x") != 1 || s.Get("y") != 2 {
		t.Fatal("Apply not visible")
	}
	if s.Version() != v0+1 {
		t.Fatalf("version = %d, want %d", s.Version(), v0+1)
	}
}

func TestGetManySnapshotSum(t *testing.T) {
	s := New()
	s.Apply(map[string]int64{"a": 1, "b": 2, "c": 3})
	m := s.GetMany([]string{"a", "c", "zz"})
	if m["a"] != 1 || m["c"] != 3 || m["zz"] != 0 {
		t.Fatalf("GetMany = %v", m)
	}
	if got := s.Sum([]string{"a", "b", "c"}); got != 6 {
		t.Fatalf("Sum = %d", got)
	}
	snap := s.Snapshot()
	s.Set("a", 100)
	if snap["a"] != 1 {
		t.Fatal("Snapshot aliases store")
	}
}

func TestConcurrentApply(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Apply(map[string]int64{"x": int64(w)})
				s.Get("x")
				s.Sum([]string{"x"})
			}
		}(w)
	}
	wg.Wait()
	if s.Version() != 800 {
		t.Fatalf("version = %d, want 800", s.Version())
	}
}

// TestJournalOrderMatchesItemVersions hammers ApplyTxn from many
// goroutines and asserts the property WAL replay rests on: for every
// item, the journal delivers that item's versions in strictly
// ascending contiguous order (the batch holds its shard locks across
// the journal call), and the global batch versions are contiguous.
func TestJournalOrderMatchesItemVersions(t *testing.T) {
	s := New()
	var mu sync.Mutex
	lastItemVer := make(map[string]int64)
	var lastVersion int64
	var violations []string
	s.SetJournal(func(ev ApplyEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Version != lastVersion+1 {
			violations = append(violations, "global version gap")
		}
		lastVersion = ev.Version
		for x, v := range ev.Vers {
			if v != lastItemVer[x]+1 {
				violations = append(violations, "item version out of order: "+x)
			}
			lastItemVer[x] = v
		}
	})
	items := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				batch := map[string]int64{
					items[(w+i)%len(items)]:   int64(i),
					items[(w+i+3)%len(items)]: int64(i),
				}
				s.ApplyTxn(w, batch)
			}
		}(w)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(violations) > 0 {
		t.Fatalf("%d ordering violations, first: %s", len(violations), violations[0])
	}
	if lastVersion != 8*200 {
		t.Fatalf("journal saw %d batches, want %d", lastVersion, 8*200)
	}
	for x, v := range lastItemVer {
		if got := s.ItemVersion(x); got != v {
			t.Fatalf("item %s: store version %d, journal high-water %d", x, got, v)
		}
	}
}

// TestConcurrentReadersAndCommits mixes Get/GetMany/Snapshot/State/Sum
// with committing batches across shards; -race plus the State
// consistency check (a snapshot never holds more versioned items than
// its batches can have written) guard the sharded locking.
func TestConcurrentReadersAndCommits(t *testing.T) {
	items := make([]string, 32)
	for i := range items {
		items[i] = fmt.Sprintf("it%02d", i)
	}
	// batch is writer w's i-th write set: up to batchWidth distinct items.
	const batchWidth = 3
	batch := func(w, i int) map[string]int64 {
		return map[string]int64{
			items[(w+i)%len(items)]:   int64(i),
			items[(w*3+i)%len(items)]: int64(i),
			items[(w*7+i)%len(items)]: int64(i),
		}
	}
	checkState := func(t *testing.T, st State) bool {
		if int64(len(st.ItemVers)) > st.Version*batchWidth {
			t.Errorf("state invariant broken: %d item versions from %d batches of at most %d writes",
				len(st.ItemVers), st.Version, batchWidth)
			return false
		}
		return true
	}

	// The writers' first round alone versions {0,1,2,3,6,7,9,14,21}:
	// nine items from four batches, so the bound is the batch width, not
	// the two distinct items a batch happens to average later on.
	t.Run("first-round", func(t *testing.T) {
		s := New()
		for w := 0; w < 4; w++ {
			s.ApplyTxn(w, batch(w, 0))
		}
		st := s.State()
		if st.Version != 4 || len(st.ItemVers) != 9 {
			t.Fatalf("first round: version %d with %d item versions, want 4 with 9", st.Version, len(st.ItemVers))
		}
		checkState(t, st)
	})

	s := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Get(items[(w*5+i)%len(items)])
				if i%7 == 0 {
					s.GetMany(items[:4])
				}
				if i%13 == 0 {
					if !checkState(t, s.State()) {
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				s.ApplyTxn(w, batch(w, i))
			}
		}(w)
	}
	// Wait for the writers to finish, then release the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for s.Version() < 4*300 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if got := s.Version(); got != 4*300 {
		t.Fatalf("version %d, want %d", got, 4*300)
	}
}
