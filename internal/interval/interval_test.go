package interval

import (
	"errors"
	"testing"

	"repro/internal/sched"
	"repro/internal/storage"
)

func TestBasicOrdering(t *testing.T) {
	st := storage.New()
	s := New(st, Options{})
	s.Begin(1)
	s.Begin(2)
	if _, err := s.Read(1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, "x", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(2, "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	if st.Get("x") != 1 {
		t.Fatal("write lost")
	}
}

func TestDependencyAgainstCommittedOrderAborts(t *testing.T) {
	s := New(storage.New(), Options{})
	s.Begin(1)
	s.Begin(2)
	s.Begin(3)
	// Chain: T1 -> T2 via x (T1 reads, T2 writes at commit).
	if _, err := s.Read(1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(2, "x", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	// T3 reads x (after T2's write): T2 -> T3.
	if _, err := s.Read(3, "x"); err != nil {
		t.Fatal(err)
	}
	// T1 writing something T3 read... first T3 reads y, then T1 writes y
	// at commit: needs T3 -> T1, but T1 -> T2 -> T3 is committed.
	if _, err := s.Read(3, "y"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, "y", 9); err != nil {
		t.Fatal(err)
	}
	err := s.Commit(1)
	if !errors.Is(err, sched.ErrAbort) {
		t.Fatalf("cycle-closing commit succeeded: %v", err)
	}
}

func TestIntervalsShrink(t *testing.T) {
	s := New(storage.New(), Options{})
	s.Begin(1)
	w0 := s.Width(1)
	if w0 != MaxTimestamp {
		t.Fatalf("fresh width = %d", w0)
	}
	if _, err := s.Read(1, "x"); err != nil {
		t.Fatal(err)
	}
	s.Begin(2)
	if err := s.Write(2, "x", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	if s.Width(1) >= w0 {
		t.Fatal("interval did not shrink on dependency")
	}
}

// Fragmentation: SplitLow starves the successor side — repeated
// dependencies exhaust the space after ~width steps, while the paper's
// vectors never fragment. SplitMid exhausts after ~62 halvings.
func TestFragmentationExhaustion(t *testing.T) {
	s := New(storage.New(), Options{Policy: SplitMid, NoCompact: true})
	// Chain many transactions through one item: T1 -> T2 -> T3 -> ...
	// Each new reader/writer splits the remaining overlap in half.
	prev := 0
	aborted := false
	for i := 1; i <= 200; i++ {
		s.Begin(i)
		if _, err := s.Read(i, "hot"); err != nil {
			aborted = true
			break
		}
		if err := s.Write(i, "hot", int64(i)); err != nil {
			aborted = true
			break
		}
		if err := s.Commit(i); err != nil {
			aborted = true
			break
		}
		prev = i
	}
	_ = prev
	if !aborted {
		t.Skip("space not exhausted within 200 chained transactions")
	}
	if s.Exhausted() == 0 {
		t.Fatal("abort not attributed to fragmentation")
	}
}

// With compaction enabled the same hot-item chain never starves: the
// space is renumbered when it runs out, at the cost the paper's vectors
// never pay.
func TestCompactionPreventsStarvation(t *testing.T) {
	s := New(storage.New(), Options{Policy: SplitMid})
	for i := 1; i <= 200; i++ {
		s.Begin(i)
		if _, err := s.Read(i, "hot"); err != nil {
			t.Fatalf("txn %d read: %v", i, err)
		}
		if err := s.Write(i, "hot", int64(i)); err != nil {
			t.Fatalf("txn %d write: %v", i, err)
		}
		if err := s.Commit(i); err != nil {
			t.Fatalf("txn %d commit: %v", i, err)
		}
	}
	if s.Compactions() == 0 {
		t.Fatal("expected at least one compaction over a 200-deep chain")
	}
}

func TestSplitPolicies(t *testing.T) {
	for _, pol := range []SplitPolicy{SplitMid, SplitLow, SplitHigh} {
		s := New(storage.New(), Options{Policy: pol})
		s.Begin(1)
		s.Begin(2)
		if _, err := s.Read(1, "x"); err != nil {
			t.Fatalf("policy %d: %v", pol, err)
		}
		if err := s.Write(2, "x", 1); err != nil {
			t.Fatalf("policy %d: %v", pol, err)
		}
		if err := s.Commit(2); err != nil {
			t.Fatalf("policy %d: %v", pol, err)
		}
		if err := s.Commit(1); err != nil {
			t.Fatalf("policy %d: %v", pol, err)
		}
	}
}

func TestReadYourOwnWrite(t *testing.T) {
	s := New(storage.New(), Options{})
	s.Begin(1)
	if err := s.Write(1, "x", 3); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read(1, "x")
	if err != nil || v != 3 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}

// A commit-time reject must park the transaction's interval like Abort
// does: its earlier reads already set RT to it, and a later reader of
// the same item resolves that holder.
func TestCommitRejectKeepsHolderState(t *testing.T) {
	s := New(storage.New(), Options{})
	s.Begin(1)
	s.Begin(2)
	s.Begin(3)
	if _, err := s.Read(1, "z"); err != nil { // RT(z) = T1
		t.Fatal(err)
	}
	// T1 -> T2 -> T3 through x, then T3 -> T1 through y closes the cycle.
	if _, err := s.Read(1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(2, "x", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(3, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(3, "y"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, "y", 9); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1); !errors.Is(err, sched.ErrAbort) {
		t.Fatalf("cycle-closing commit succeeded: %v", err)
	}
	s.Abort(1) // what txn.Runtime does after a failed commit
	s.Begin(4)
	if _, err := s.Read(4, "z"); err != nil { // panicked: unknown transaction 1
		t.Fatal(err)
	}
}
