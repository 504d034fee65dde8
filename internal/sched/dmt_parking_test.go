package sched

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dmt"
	"repro/internal/fault"
	"repro/internal/storage"
)

// newParkingDMT builds a 2-site DMT whose items all live at site 0, so
// transactions homed at site 1 (odd ids) can lose their home site while
// their item accesses stay reachable.
func newParkingDMT(t *testing.T, transport bool) (*DMT, *storage.Store) {
	t.Helper()
	st := storage.New()
	opts := dmt.Options{K: 2, Sites: 2, HomeOfItem: func(string) int { return 0 }}
	if transport {
		opts.Transport = fault.New(fault.Plan{Name: "none"}, 2, 1)
	}
	return NewDMT(st, opts), st
}

// A commit parked on a crashed home site must complete once the site
// recovers, and its writes must land.
func TestDMTParkedCommitReleasedByRecovery(t *testing.T) {
	d, st := newParkingDMT(t, false)
	d.SetParking(Parking{Capacity: 2, Deadline: 10 * time.Second, Poll: 100 * time.Microsecond})
	d.Begin(1) // homed at site 1
	if err := d.Write(1, "x", 7); err != nil {
		t.Fatalf("write: %v", err)
	}
	d.Cluster().CrashSite(1, false)
	done := make(chan error, 1)
	go func() { done <- d.Commit(1) }()
	waitFor(t, func() bool { return d.Degraded().Parked == 1 })
	d.Cluster().RecoverSite(1)
	if err := <-done; err != nil {
		t.Fatalf("parked commit after recovery: %v", err)
	}
	if st.Get("x") != 7 {
		t.Fatalf("x = %d after healed commit, want 7", st.Get("x"))
	}
	s := d.Degraded()
	if s.Parked != 1 || s.Healed != 1 || s.Expired != 0 {
		t.Fatalf("stats = %+v, want 1 parked, 1 healed", s)
	}
}

// A parked commit whose home site never returns must give up at the
// deadline with a retryable unavailability error.
func TestDMTParkedCommitDeadlineExpires(t *testing.T) {
	d, _ := newParkingDMT(t, false)
	d.SetParking(Parking{Capacity: 1, Deadline: 5 * time.Millisecond, Poll: 200 * time.Microsecond})
	d.Begin(1)
	if err := d.Write(1, "x", 7); err != nil {
		t.Fatalf("write: %v", err)
	}
	d.Cluster().CrashSite(1, false)
	err := d.Commit(1)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("expired parked commit: %v, want ErrUnavailable", err)
	}
	s := d.Degraded()
	if s.Parked != 1 || s.Expired != 1 || s.Healed != 0 {
		t.Fatalf("stats = %+v, want 1 parked, 1 expired", s)
	}
}

// The hand-off queue is bounded: a commit arriving while the queue is
// full fails fast instead of waiting, and is counted as rejected.
func TestDMTParkingQueueBackpressure(t *testing.T) {
	d, _ := newParkingDMT(t, false)
	d.SetParking(Parking{Capacity: 1, Deadline: 10 * time.Second, Poll: 100 * time.Microsecond})
	d.Begin(1) // both homed at site 1
	d.Begin(3)
	if err := d.Write(1, "x", 1); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	d.Cluster().CrashSite(1, false)
	done := make(chan error, 1)
	go func() { done <- d.Commit(1) }()
	waitFor(t, func() bool { return d.Degraded().Parked == 1 })
	if err := d.Commit(3); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("commit into full queue: %v, want ErrUnavailable", err)
	}
	if got := d.Degraded().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	d.Cluster().RecoverSite(1)
	if err := <-done; err != nil {
		t.Fatalf("parked commit after recovery: %v", err)
	}
}

// An attempt that has validated nothing yet parks at its FIRST protocol
// step and resumes after the heal — indistinguishable from a fresh
// attempt, so no validated state is lost.
func TestDMTFirstStepParksUntilHeal(t *testing.T) {
	d, st := newParkingDMT(t, true)
	d.SetParking(Parking{Capacity: 2, Deadline: 10 * time.Second, Poll: 100 * time.Microsecond})
	st.Set("x", 41)
	d.Begin(1)
	d.Cluster().CrashSite(1, false)
	type res struct {
		v   int64
		err error
	}
	done := make(chan res, 1)
	go func() {
		v, err := d.Read(1, "x")
		done <- res{v, err}
	}()
	waitFor(t, func() bool { return d.Degraded().Parked == 1 })
	d.Cluster().RecoverSite(1)
	r := <-done
	if r.err != nil || r.v != 41 {
		t.Fatalf("first-step read after heal: v=%d err=%v", r.v, r.err)
	}
	if err := d.Commit(1); err != nil {
		t.Fatalf("commit: %v", err)
	}
	s := d.Degraded()
	if s.Parked != 1 || s.Healed != 1 {
		t.Fatalf("stats = %+v, want 1 parked, 1 healed", s)
	}
	if s.WindowAttempts != 1 || s.WindowCommits != 1 {
		t.Fatalf("window stats = %+v, want 1/1", s)
	}
}

// An attempt caught MID-flight by its home site's crash fails fast —
// its validated steps died with the site's volatile state, so parking
// it would resume from state that no longer exists.
func TestDMTMidFlightLossFailsFast(t *testing.T) {
	d, _ := newParkingDMT(t, true)
	d.SetParking(Parking{Capacity: 2, Deadline: 10 * time.Second, Poll: 100 * time.Microsecond})
	d.Begin(1)
	if err := d.Write(1, "x", 7); err != nil { // validated at healthy site 0
		t.Fatalf("write: %v", err)
	}
	d.Cluster().CrashSite(1, false)
	err := d.Write(1, "y", 8)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("mid-flight step on crashed home: %v, want ErrUnavailable", err)
	}
	s := d.Degraded()
	if s.Parked != 0 {
		t.Fatalf("mid-flight attempt parked: %+v", s)
	}
	if s.WindowAttempts != 1 {
		t.Fatalf("window attempts = %d, want 1", s.WindowAttempts)
	}
}

// The gate sits in FRONT of the lifecycle: an attempt parked at its
// first step holds no item latch and no transaction-state lock. While
// T1 (home site down) is parked on x, T2 (healthy home) reads, writes
// and commits x; a stray Read and a stray Abort on T1's own id return
// at once; and once the site heals, the parked straggler is answered
// like any stray and T1's next incarnation reads T2's value and commits.
func TestDMTParkedAttemptHoldsNoLocks(t *testing.T) {
	d, st := newParkingDMT(t, true)
	d.SetParking(Parking{Capacity: 1, Deadline: 10 * time.Second, Poll: 100 * time.Microsecond})
	st.Set("x", 41)
	// within runs f on its own goroutine and fails the test if it blocks.
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { f(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s blocked behind the parked attempt", what)
		}
	}
	d.Begin(1) // homed at site 1
	d.Cluster().CrashSite(1, false)
	parked := make(chan error, 1)
	go func() {
		_, err := d.Read(1, "x")
		parked <- err
	}()
	waitFor(t, func() bool { return d.Degraded().Parked == 1 })

	// No item latch: a healthy transaction runs the full lifecycle on x.
	within("T2 on the parked item", func() {
		d.Begin(2) // homed at site 0
		if v, err := d.Read(2, "x"); err != nil || v != 41 {
			t.Errorf("T2 read: v=%d err=%v", v, err)
		}
		if err := d.Write(2, "x", 42); err != nil {
			t.Errorf("T2 write: %v", err)
		}
		if err := d.Commit(2); err != nil {
			t.Errorf("T2 commit: %v", err)
		}
	})
	if got := st.Get("x"); got != 42 {
		t.Fatalf("x = %d after T2's commit, want 42", got)
	}
	// No gate lock: a stray Read on T1's id meets the full queue and is
	// refused without waiting. No transaction-state lock: a stray Abort
	// takes T1's state lock and ends the incarnation.
	within("stray Read on the parked id", func() {
		if _, err := d.Read(1, "x"); !errors.Is(err, ErrUnavailable) {
			t.Errorf("stray read: %v, want ErrUnavailable (queue full)", err)
		}
	})
	within("stray Abort on the parked id", func() { d.Abort(1) })
	if s := d.Degraded(); s.Parked != 1 || s.Rejected != 1 {
		t.Fatalf("stats = %+v, want 1 parked, 1 rejected", s)
	}

	d.Cluster().RecoverSite(1)
	if err := <-parked; !errors.Is(err, ErrAbort) {
		t.Fatalf("parked read of the aborted incarnation: %v, want a plain abort", err)
	}
	d.Begin(1)
	if v, err := d.Read(1, "x"); err != nil || v != 42 {
		t.Fatalf("T1 after the heal: v=%d err=%v, want T2's 42", v, err)
	}
	if err := d.Commit(1); err != nil {
		t.Fatalf("T1 commit after the heal: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
