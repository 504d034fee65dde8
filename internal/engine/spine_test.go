package engine

import "testing"

// TestSpineRecycledChunkStaleEntry drives the hazard the sliding spine
// adds: a lookup reads a slot of a chunk that is retired and reused for
// a higher id range before the looker locks what it read. The stale
// pointer must fail the (id, dead) check, so lockTxns retries and
// StaleRetries counts the miss, and the old id must stay unfound.
func TestSpineRecycledChunkStaleEntry(t *testing.T) {
	s := NewStriped(Options{K: 2})
	old := 1<<txnChunkBits | 5
	kept := s.create(old)
	s.create(2<<txnChunkBits | 1) // chunk 2 becomes the newest
	if installed, _ := s.txns.Chunks(); installed != 2 {
		t.Fatalf("%d chunks installed, want 2", installed)
	}
	// Finishing the only transaction of chunk 1 empties it below the
	// newest chunk: it is retired.
	s.Commit(old)
	if !kept.dead.Load() {
		t.Fatal("committed, unpinned entry not reclaimed")
	}
	if installed, _ := s.txns.Chunks(); installed != 1 {
		t.Fatalf("%d chunks installed after the retirement, want 1", installed)
	}
	// A new chunk number takes the retired chunk; the same slot now
	// serves id fresh.
	fresh := 3<<txnChunkBits | 5
	e := s.create(fresh)
	if s.lookup(old) != nil {
		t.Fatal("old id found in a recycled chunk")
	}
	// What a lookup of old that raced the recycle may hold: the pointer
	// it kept from before, or the slot's new occupant.
	for _, stale := range []*txnEntry{kept, e} {
		before := s.StaleRetries()
		lt := lockedTxns{ids: [3]int{old}, es: [3]*txnEntry{stale}, n: 1}
		if s.lockFound(&lt) {
			lt.unlock()
			t.Fatalf("stale entry %p (id %d) accepted for id %d", stale, stale.id, old)
		}
		if got := s.StaleRetries(); got != before+1 {
			t.Fatalf("StaleRetries %d -> %d, want one more", before, got)
		}
	}
	// The retry looks up again and works on an entry of old's own.
	s.Vector(old)
	if got := s.lookup(old); got == nil || got == e || got.id != old {
		t.Fatal("retry did not reach an entry of old's own")
	}
	if s.lookup(fresh) != e || e.id != fresh {
		t.Fatal("the new range's entry was disturbed")
	}
}
