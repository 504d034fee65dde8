package txn

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
)

// flakyUnavailable fails its first n reads with sched.ErrUnavailable and
// then serves normally — a site that comes back.
type flakyUnavailable struct {
	mu       sync.Mutex
	failures int
	aborts   int
}

func (f *flakyUnavailable) Name() string { return "flaky" }
func (f *flakyUnavailable) Begin(int)    {}
func (f *flakyUnavailable) Abort(int) {
	f.mu.Lock()
	f.aborts++
	f.mu.Unlock()
}
func (f *flakyUnavailable) Commit(int) error { return nil }
func (f *flakyUnavailable) Read(txn int, item string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failures > 0 {
		f.failures--
		return 0, sched.Unavailable(txn, 1, "site down")
	}
	return 42, nil
}
func (f *flakyUnavailable) Write(txn int, item string, v int64) error { return nil }

// Unavailability retries must not consume the conflict-retry budget:
// with MaxAttempts=1 a transaction that hits a down site twice and then
// succeeds still commits.
func TestUnavailableRetriesSeparateBudget(t *testing.T) {
	f := &flakyUnavailable{failures: 2}
	rt := &Runtime{Sched: f, MaxAttempts: 1, UnavailableBudget: 10}
	res := rt.Exec(Spec{ID: 1, Ops: []Op{R("x")}})
	if !res.Committed {
		t.Fatalf("gave up: %+v", res)
	}
	if res.Attempts != 3 || res.Unavailable != 2 || res.Timeouts != 0 {
		t.Fatalf("res = %+v", res)
	}
	if v, _ := res.Reads.Get("x"); v != 42 {
		t.Fatalf("reads = %v", res.Reads)
	}
	// Each unavailability retry aborted the dead incarnation first.
	if f.aborts != 2 {
		t.Fatalf("aborts = %d, want 2", f.aborts)
	}
}

// The unavailability budget is enforced: a site that never comes back
// makes the transaction give up after exactly UnavailableBudget attempts.
func TestUnavailableBudgetExhausted(t *testing.T) {
	f := &flakyUnavailable{failures: 1 << 30}
	rt := &Runtime{Sched: f, MaxAttempts: 1, UnavailableBudget: 3}
	res := rt.Exec(Spec{ID: 1, Ops: []Op{R("x")}})
	if res.Committed {
		t.Fatal("committed against a permanently down site")
	}
	if res.Attempts != 3 || res.Unavailable != 3 {
		t.Fatalf("res = %+v", res)
	}
}

// hangOnce blocks the first read until released — a hung site that the
// per-attempt timeout must cut loose.
type hangOnce struct {
	mu      sync.Mutex
	hung    bool
	release chan struct{}
}

func (h *hangOnce) Name() string     { return "hang" }
func (h *hangOnce) Begin(int)        {}
func (h *hangOnce) Abort(int)        {}
func (h *hangOnce) Commit(int) error { return nil }
func (h *hangOnce) Read(txn int, item string) (int64, error) {
	h.mu.Lock()
	first := !h.hung
	h.hung = true
	h.mu.Unlock()
	if first {
		<-h.release
		return 0, sched.Unavailable(txn, 1, "stale attempt")
	}
	return 7, nil
}
func (h *hangOnce) Write(txn int, item string, v int64) error { return nil }

// A hung attempt is abandoned by AttemptTimeout, counted as a timeout
// (not a protocol abort), and the retry commits.
func TestAttemptTimeoutAbandonsHungAttempt(t *testing.T) {
	h := &hangOnce{release: make(chan struct{})}
	defer close(h.release) // let the abandoned goroutine drain
	rt := &Runtime{Sched: h, AttemptTimeout: 20 * time.Millisecond, UnavailableBudget: 5}
	done := make(chan Result, 1)
	go func() { done <- rt.Exec(Spec{ID: 1, Ops: []Op{R("x")}}) }()
	select {
	case res := <-done:
		if !res.Committed {
			t.Fatalf("gave up: %+v", res)
		}
		if res.Timeouts != 1 || res.Unavailable != 0 || res.Attempts != 2 {
			t.Fatalf("res = %+v", res)
		}
		if v, _ := res.Reads.Get("x"); v != 7 {
			t.Fatalf("reads = %v", res.Reads)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Exec hung despite AttemptTimeout")
	}
}

// The jitter seed preserves legacy behavior at Seed 0 and varies
// deterministically with the runtime seed otherwise.
func TestJitterSeed(t *testing.T) {
	if got := jitterSeed(0, 42); got != 42 {
		t.Fatalf("jitterSeed(0, 42) = %d, want the legacy spec-ID seed", got)
	}
	a, b := jitterSeed(7, 42), jitterSeed(9, 42)
	if a == 42 || b == 42 {
		t.Fatal("runtime seed not mixed in")
	}
	if a == b {
		t.Fatal("different runtime seeds collapsed to the same jitter seed")
	}
	if jitterSeed(7, 42) != a {
		t.Fatal("jitterSeed is not deterministic")
	}
}
