package engine

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// TestPooledEntryGenerationCheck walks the reclaim/recycle lifecycle
// deterministically and checks the invariant the lockTxns generation
// check relies on: a pooled entry that has been re-published for a
// different transaction no longer validates under its old identity, so
// a straggler holding a stale pointer can never mutate it unnoticed.
func TestPooledEntryGenerationCheck(t *testing.T) {
	s := NewStriped(Options{K: 3})
	lt := s.Latches()
	id := s.ItemID("x")
	stripe := lt.StripeOfID(id)

	step := func(txn int, read bool) core.Verdict {
		lt.LockStripe(stripe)
		defer lt.UnlockStripe(stripe)
		var v core.Verdict
		if read {
			v, _ = s.StepReadID(txn, id)
		} else {
			v, _ = s.StepWriteID(txn, id)
		}
		return v
	}

	if v := step(5, true); v != core.Accept {
		t.Fatalf("T5 read: %v", v)
	}
	e5 := s.lookup(5)
	if e5 == nil {
		t.Fatal("no entry for T5")
	}
	gen := e5.gen

	// Commit alone must not reclaim: T5 is still the item's RT, so a
	// later conflict test may still need its vector.
	s.Commit(5)
	if e5.dead.Load() {
		t.Fatal("entry reclaimed while still pinned as RT")
	}

	// T6's read repins RT(x) from 5 to 6, dropping T5's last pin: now
	// the committed entry is reclaimed and its generation bumped.
	if v := step(6, true); v != core.Accept {
		t.Fatalf("T6 read: %v", v)
	}
	if !e5.dead.Load() {
		t.Fatal("entry not reclaimed after losing its last pin")
	}
	if e5.gen != gen+1 {
		t.Fatalf("reclaim gen = %d, want %d", e5.gen, gen+1)
	}
	if s.lookup(5) != nil {
		t.Fatal("reclaimed entry still published under id 5")
	}

	// Re-admission recycles from the pool (LIFO: the object just put
	// back). The recycled object now answers to the new id only — the
	// exact predicate lockTxns re-checks after locking, so any stale
	// holder of e5 expecting transaction 5 is forced to retry.
	if v := step(7, false); v != core.Accept {
		t.Fatalf("T7 write: %v", v)
	}
	e7 := s.lookup(7)
	if e7 == nil {
		t.Fatal("no entry for T7")
	}
	if e7 == e5 {
		if e5.id != 7 || e5.gen != gen+2 {
			t.Fatalf("recycled entry id=%d gen=%d, want id=7 gen=%d", e5.id, e5.gen, gen+2)
		}
	} else {
		// The pool is free to have dropped the entry (GC); the dead
		// flag still guards every stale holder.
		if !e5.dead.Load() {
			t.Fatal("unrecycled reclaimed entry lost its dead mark")
		}
	}
}

// TestPooledEntryReuseStress hammers a tiny transaction-id window from
// many goroutines so entries are continuously aborted, reclaimed and
// re-admitted while other goroutines hold and lock stale pointers
// (Vector/Snapshot readers, lock-set retries). Under -race this is the
// pooled-reuse safety gate: the generation check must convert every
// stale access into a retry, never a silent mutation of a recycled
// entry. Afterwards the atomic live-entry counter must agree exactly
// with the published snapshot — a double reclaim or leaked publish
// shows up as a counter divergence.
func TestPooledEntryReuseStress(t *testing.T) {
	s := NewStriped(Options{K: 3, StarvationAvoidance: true})
	lt := s.Latches()
	items := make([]int32, 8)
	for i := range items {
		items[i] = s.ItemID(string(rune('a' + i)))
	}
	const (
		workers   = 8
		iters     = 4000
		txnWindow = 32
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < iters; i++ {
				txn := 1 + rng.Intn(txnWindow)
				id := items[rng.Intn(len(items))]
				stripe := lt.StripeOfID(id)
				lt.LockStripe(stripe)
				var v core.Verdict
				var blocker int
				if rng.Intn(2) == 0 {
					v, blocker = s.StepReadID(txn, id)
				} else {
					v, blocker = s.StepWriteID(txn, id)
				}
				lt.UnlockStripe(stripe)
				switch {
				case v == core.Reject:
					s.Abort(txn, blocker)
				case rng.Intn(3) == 0:
					s.Commit(txn)
				case rng.Intn(5) == 0:
					s.Abort(txn, 0)
				}
				if rng.Intn(4) == 0 {
					_ = s.Vector(txn) // stale-prone reader
				}
				if rng.Intn(128) == 0 {
					_ = s.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	snap := s.Snapshot()
	if got := s.LiveVectors(); got != len(snap) {
		t.Fatalf("live counter %d != published entries %d", got, len(snap))
	}
	if _, ok := snap[0]; !ok {
		t.Fatal("T0 missing from snapshot")
	}
	t.Logf("stale lock retries caught: %d", s.StaleRetries())
}

// TestSpineGrowthIsLinear pins the transaction table's growth cost: a
// run that keeps minting fresh transaction ids installs one chunk per
// 256 ids, and the bytes that costs must not depend on how many chunks
// are already there. Touching one id per chunk up to 2^22 installs 2^14
// chunks; re-copying the whole chunk-pointer spine for each (the
// defect this guards against) allocates ~1 GiB here, against ~35 MiB of
// chunks plus a geometrically grown spine.
func TestSpineGrowthIsLinear(t *testing.T) {
	s := NewStriped(Options{K: 2})
	const chunks = 1 << 22 >> txnChunkBits
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for c := 0; c < chunks; c++ {
		s.Commit(c<<txnChunkBits | 1) // creates the entry, then recycles it
	}
	runtime.ReadMemStats(&after)
	perChunk := (after.TotalAlloc - before.TotalAlloc) / chunks
	if limit := uint64(2 * unsafe.Sizeof(txnChunk{})); perChunk > limit {
		t.Fatalf("%d B allocated per installed chunk, want <= %d (spine growth is not amortized)", perChunk, limit)
	}
	// Out-of-order ids fill holes below the published length with a
	// fresh copy; lookups must still find every entry afterwards.
	h := NewStriped(Options{K: 2})
	for _, id := range []int{5 << txnChunkBits, 1 << txnChunkBits, 3 << txnChunkBits, 0, 9 << txnChunkBits} {
		h.create(id)
	}
	for _, id := range []int{5 << txnChunkBits, 1 << txnChunkBits, 3 << txnChunkBits, 9 << txnChunkBits} {
		if e := h.lookup(id); e == nil || e.id != id {
			t.Fatalf("lookup(%d) = %+v after out-of-order creation", id, e)
		}
	}
	if e := h.lookup(2 << txnChunkBits); e != nil {
		t.Fatalf("lookup of a never-created id = %+v, want nil", e)
	}
}
