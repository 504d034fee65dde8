package sched

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// TestSpineRecycledChunkLockState drives the adapter's transaction
// spine through the recycling hazard: the chunk holding a finished
// transaction's state is retired and reused for a higher id range,
// possibly with the very state object. lockState for the old id must
// then find nothing, and the kept pointer must fail the identity
// re-check that lockState runs after locking.
func TestSpineRecycledChunkLockState(t *testing.T) {
	m := NewMTStriped(storage.New(), MTOptions{Core: engine.Options{K: 2}})
	a := m.adapter
	old := 1<<core.SpineChunkBits | 5
	a.Begin(old)
	kept := a.txns.Load(old)
	a.Begin(2<<core.SpineChunkBits | 1) // chunk 2 becomes the newest
	if err := a.Commit(old); err != nil {
		t.Fatal(err)
	}
	if installed, _ := a.txns.Chunks(); installed != 1 {
		t.Fatalf("%d chunks installed after the retirement, want 1", installed)
	}
	fresh := 3<<core.SpineChunkBits | 5
	a.Begin(fresh)
	if st := a.lockState(old); st != nil {
		st.mu.Unlock()
		t.Fatal("lockState found a state for a finished id in a recycled chunk")
	}
	if a.live(old) {
		t.Fatal("finished id reported live")
	}
	kept.mu.Lock()
	recheck := kept.id == old && a.txns.Load(old) == kept
	kept.mu.Unlock()
	if recheck {
		t.Fatal("kept state passes the identity re-check for the old id")
	}
	if _, err := a.Read(old, "x"); err == nil {
		t.Fatal("read of a finished id accepted")
	}
	st := a.lockState(fresh)
	if st == nil || st.id != fresh {
		t.Fatal("the new range's state is not found")
	}
	st.mu.Unlock()
}

// TestFreshIDCommitsAllocateNothing holds the striped path to zero
// allocations per transaction over a long run of fresh ids: 64 000
// 4-op commits, 250 spine chunks' worth, after a warm-up. Both
// transaction tables (the adapter's and the engine's) must slide over
// retired chunks instead of minting new ones.
func TestFreshIDCommitsAllocateNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random and allocates on its own")
	}
	// One P: sync.Pool keeps a cache per P, and a goroutine that moves
	// between Ps refills the new one's cache by allocating.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	store := storage.New()
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf("k%02d", i)
		store.Set(items[i], 1)
	}
	s := NewMTStriped(store, MTOptions{Core: engine.Options{K: 7, StarvationAvoidance: true}})
	id := 0
	run := func(n int) {
		for i := 0; i < n; i++ {
			id++
			x, y := items[id%len(items)], items[(id*7+3)%len(items)]
			s.Begin(id)
			if _, err := s.Read(id, x); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Read(id, y); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(id, x, int64(id)); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(id, y, int64(id)); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the pools, the store's write path and the rings; the GC in
	// between settles the warm-up's garbage, so no collection (which
	// empties sync.Pools) falls inside the measured run.
	run(4000)
	runtime.GC()
	run(4000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(64000)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n >= 16 {
		t.Fatalf("64 000 fresh-id commits allocated %d times, want < 16", n)
	}
}
