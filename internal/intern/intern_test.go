package intern

import (
	"fmt"
	"sync"
	"testing"
)

func TestTableDenseIDs(t *testing.T) {
	tb := New()
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("x%03d", i)
		if got := tb.ID(name); got != int32(i) {
			t.Fatalf("ID(%q) = %d, want %d", name, got, i)
		}
	}
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("x%03d", i)
		if got := tb.ID(name); got != int32(i) {
			t.Fatalf("re-ID(%q) = %d, want %d", name, got, i)
		}
		if got := tb.Name(int32(i)); got != name {
			t.Fatalf("Name(%d) = %q, want %q", i, got, name)
		}
	}
	if tb.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tb.Len())
	}
	if id, ok := tb.Lookup("x007"); !ok || id != 7 {
		t.Fatalf("Lookup(x007) = %d,%v", id, ok)
	}
	if _, ok := tb.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) succeeded")
	}
	names := tb.Names()
	if len(names) != 100 || names[42] != "x042" {
		t.Fatalf("Names() wrong: len=%d", len(names))
	}
}

// TestTableConcurrent hammers the table from many goroutines over a
// shared key space and checks every goroutine resolves every name to
// the same id (run under -race in CI).
func TestTableConcurrent(t *testing.T) {
	tb := New()
	const workers, keys = 8, 512
	ids := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		ids[w] = make([]int32, keys)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := (i*7 + w) % keys // interleaved orders per goroutine
				ids[w][k] = tb.ID(fmt.Sprintf("k%04d", k))
			}
		}(w)
	}
	wg.Wait()
	if tb.Len() != keys {
		t.Fatalf("Len = %d, want %d", tb.Len(), keys)
	}
	for k := 0; k < keys; k++ {
		want := ids[0][k]
		if got := tb.Name(want); got != fmt.Sprintf("k%04d", k) {
			t.Fatalf("Name(%d) = %q", want, got)
		}
		for w := 1; w < workers; w++ {
			if ids[w][k] != want {
				t.Fatalf("worker %d got id %d for key %d, worker 0 got %d", w, ids[w][k], k, want)
			}
		}
	}
}

func TestTableSteadyLookupAllocFree(t *testing.T) {
	tb := New()
	for i := 0; i < 64; i++ {
		tb.ID(fmt.Sprintf("x%02d", i))
	}
	tb.ID("promote-check")
	allocs := testing.AllocsPerRun(1000, func() {
		if tb.ID("x33") != 33 {
			t.Fatal("wrong id")
		}
		_ = tb.Name(33)
	})
	if allocs != 0 {
		t.Fatalf("steady ID+Name allocates %v/op, want 0", allocs)
	}
}

// A table that stays below promoteMin names is served by the lock-free
// scan of the published names alone: no read map is ever built, and a
// repeat lookup neither allocates nor (the point) takes the mutex.
func TestSmallTableNeverPromotes(t *testing.T) {
	tb := New()
	const names = promoteMin - 1
	for i := 0; i < names; i++ {
		tb.ID(fmt.Sprintf("x%02d", i))
	}
	if n := len(*tb.read.Load()); n != 0 {
		t.Fatalf("read map holds %d names after %d interned, want none", n, names)
	}
	tb.mu.Lock() // a repeat lookup that needed the mutex would deadlock here
	defer tb.mu.Unlock()
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < names; i++ {
			if tb.ID(tb.Name(int32(i))) != int32(i) {
				t.Fatal("wrong id")
			}
		}
	}); allocs != 0 {
		t.Fatalf("small-table lookups allocate %v/run, want 0", allocs)
	}
}
