package core

import (
	"math/rand"
	"sync"
	"testing"
)

// TestSpineLoadAndSwap walks the slot contract: publish into an empty
// slot, refuse to publish over an occupant, clear only the expected
// occupant, and keep id 0 outside the ring.
func TestSpineLoadAndSwap(t *testing.T) {
	var s Spine[int]
	a, b := new(int), new(int)
	if s.Load(7) != nil || s.Len() != 0 {
		t.Fatal("empty spine is not empty")
	}
	if !s.CompareAndSwap(7, nil, a) || s.Load(7) != a {
		t.Fatal("publish into an empty slot failed")
	}
	if s.CompareAndSwap(7, nil, b) {
		t.Fatal("published over an occupant")
	}
	if s.CompareAndSwap(7, b, nil) {
		t.Fatal("cleared a slot that held another element")
	}
	if !s.CompareAndSwap(7, a, b) || s.Load(7) != b {
		t.Fatal("swap of the occupant failed")
	}
	if !s.CompareAndSwap(0, nil, a) || s.Load(0) != a {
		t.Fatal("id 0 not published")
	}
	if installed, _ := s.Chunks(); installed != 1 {
		t.Fatalf("%d chunks installed, want 1 (id 0 is held outside the ring)", installed)
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if s.CompareAndSwap(SpineChunkSize*9, a, nil) {
		t.Fatal("cleared a slot of a chunk that was never installed")
	}
	if s.Load(-1) != nil {
		t.Fatal("negative id found")
	}
}

// TestSpineSlidesWithoutAllocating runs a window of live ids up the id
// space: every chunk that empties below the newest one is retired and
// reused for the next chunk number, so sliding over 4 096 chunks
// allocates nothing once the window's chunks exist, and the ring stays
// as small as the window.
func TestSpineSlidesWithoutAllocating(t *testing.T) {
	var s Spine[int]
	elems := make([]int, 4*SpineChunkSize)
	const window = 3 * SpineChunkSize / 2
	next := 1
	step := func() {
		s.CompareAndSwap(next, nil, &elems[next%len(elems)])
		if old := next - window; old > 0 {
			if !s.CompareAndSwap(old, &elems[old%len(elems)], nil) {
				t.Fatalf("clear of id %d failed", old)
			}
		}
		next++
	}
	for i := 0; i < 8*SpineChunkSize; i++ {
		step()
	}
	if n := testing.AllocsPerRun(4096*SpineChunkSize/100, func() {
		for i := 0; i < 100; i++ {
			step()
		}
	}); n != 0 {
		t.Fatalf("sliding allocated %.2f times per 100 ids", n)
	}
	if installed, ring := s.Chunks(); installed > 3 || ring > 4 {
		t.Fatalf("%d chunks installed in a ring of %d for a window of %d ids", installed, ring, window)
	}
	if got := s.Len(); got != window {
		t.Fatalf("Len = %d, want %d", got, window)
	}
	if s.Load(next-window-1) != nil || s.Load(next-window) == nil {
		t.Fatal("window edges misplaced")
	}
}

// TestSpineRetiresAndRecyclesChunk pins the recycling hazard at the
// spine level: a chunk emptied below the newest one is retired and then
// reused, as the same object, for a higher id range. A stale view of
// it — what a lookup that raced the recycle holds — then shows the new
// range's element, which the tag check turns away from the old id.
func TestSpineRetiresAndRecyclesChunk(t *testing.T) {
	var s Spine[int]
	old := 1*SpineChunkSize + 5
	x, y, z := new(int), new(int), new(int)
	s.CompareAndSwap(old, nil, x)
	s.CompareAndSwap(2*SpineChunkSize+1, nil, y) // chunk 2 is now the newest
	stale := s.ring.Load().at(1)
	if !s.CompareAndSwap(old, x, nil) {
		t.Fatal("clear failed")
	}
	if stale.live.Load() >= 0 || stale.num.Load() != -1 {
		t.Fatalf("emptied chunk not retired: live=%d num=%d", stale.live.Load(), stale.num.Load())
	}
	fresh := 3*SpineChunkSize + 5
	s.CompareAndSwap(fresh, nil, z)
	if got := s.ring.Load().at(3); got != stale {
		t.Fatal("the retired chunk was not reused for the next chunk number")
	}
	if p := stale.slots[old&spineSlotMask].Load(); p != z {
		t.Fatalf("stale view of the old slot holds %p, want the new range's %p", p, z)
	}
	if s.Load(old) != nil {
		t.Fatal("Load of the old id passed the tag check of a recycled chunk")
	}
	if s.Load(fresh) != z {
		t.Fatal("new id not found")
	}
}

// TestSpineOutOfOrderIDs installs chunks far apart and below the
// newest: the ring grows until no two live chunks share a position,
// and every id stays findable through the tag check.
func TestSpineOutOfOrderIDs(t *testing.T) {
	var s Spine[int]
	ids := []int{5 << SpineChunkBits, 1 << SpineChunkBits, 3 << SpineChunkBits, 40 << SpineChunkBits, 9<<SpineChunkBits | 7}
	for _, id := range ids {
		if !s.CompareAndSwap(id, nil, new(int)) {
			t.Fatalf("publish %d failed", id)
		}
	}
	for _, id := range ids {
		if s.Load(id) == nil {
			t.Fatalf("id %d lost", id)
		}
	}
	if s.Load(2<<SpineChunkBits) != nil || s.Load(41<<SpineChunkBits) != nil {
		t.Fatal("found an id that was never published")
	}
}

// TestSpineConcurrentChurn publishes and clears from many goroutines,
// each sliding its own window of ids up a shared range while readers
// look up random ids, so chunks are installed, retired and recycled
// under traffic. Under -race this is the spine's memory-safety gate;
// afterwards every published element must be found and the count must
// match.
func TestSpineConcurrentChurn(t *testing.T) {
	var s Spine[int]
	const (
		workers = 4
		per     = 20 * SpineChunkSize
		window  = 64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			elems := make([]int, per+1)
			for i := 1; i <= per; i++ {
				id := i*workers + w
				if !s.CompareAndSwap(id, nil, &elems[i]) {
					t.Errorf("publish %d failed", id)
					return
				}
				if i > window {
					j := i - window
					if !s.CompareAndSwap(j*workers+w, &elems[j], nil) {
						t.Errorf("clear %d failed", j*workers+w)
						return
					}
				}
				if p := s.Load(rng.Intn(id) + 1); p != nil {
					_ = *p
				}
			}
		}(w)
	}
	wg.Wait()
	live := 0
	s.Range(func(id int, p *int) { live++ })
	if got := s.Len(); got != live || got != workers*window {
		t.Fatalf("Len = %d, ranged %d, want %d", got, live, workers*window)
	}
}
