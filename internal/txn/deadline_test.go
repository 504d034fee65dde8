package txn

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/sched"
	"repro/internal/storage"
)

// TestDeadlineCancelsBackoff pins the runtime against an always-aborting
// scheduler with a backoff base far longer than the deadline: without a
// cancellable sleep the transaction would be stuck in time.Sleep long
// past its budget.
func TestDeadlineCancelsBackoff(t *testing.T) {
	rt := &Runtime{
		Sched:    alwaysAbort{},
		Backoff:  10 * time.Second,
		Deadline: 20 * time.Millisecond,
	}
	start := time.Now()
	res := rt.Exec(Spec{ID: 1, Ops: []Op{R("x")}})
	if res.Committed || !res.DeadlineExceeded {
		t.Fatalf("res = %+v", res)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("deadline did not cancel the backoff sleep (waited %v)", waited)
	}
}

// TestDeadlineCancelsThink covers the think-time sleeps: a per-op think
// of 10s against a 20ms deadline must not block the caller.
func TestDeadlineCancelsThink(t *testing.T) {
	st := storage.New()
	rt := &Runtime{
		Sched:    mt(st),
		Think:    10 * time.Second,
		Deadline: 20 * time.Millisecond,
	}
	start := time.Now()
	res := rt.Exec(Spec{ID: 1, Ops: []Op{R("x"), W("y")}})
	if res.Committed || !res.DeadlineExceeded {
		t.Fatalf("res = %+v", res)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("deadline did not cancel the think sleep (waited %v)", waited)
	}
}

// TestExecCtxCancel covers caller-context cancellation.
func TestExecCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Runtime{Sched: alwaysAbort{}, Backoff: 10 * time.Second}
	done := make(chan Result, 1)
	go func() { done <- rt.ExecCtx(ctx, Spec{ID: 1, Ops: []Op{R("x")}}) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if !res.DeadlineExceeded {
			t.Fatalf("res = %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ctx cancel did not release the transaction")
	}
}

// blockingSched blocks inside Read until released — the latch-wait
// model: the deadline must abandon the attempt even though the
// scheduler call never returns on its own.
type blockingSched struct {
	release chan struct{}
	aborted sync.Map
}

func (b *blockingSched) Name() string { return "blocking" }
func (b *blockingSched) Begin(int)    {}
func (b *blockingSched) Abort(txn int) {
	b.aborted.Store(txn, true)
}
func (b *blockingSched) Commit(int) error { return nil }
func (b *blockingSched) Read(txn int, item string) (int64, error) {
	<-b.release
	return 0, nil
}
func (b *blockingSched) Write(txn int, item string, v int64) error { return nil }

func TestDeadlineAbandonsBlockedAttempt(t *testing.T) {
	b := &blockingSched{release: make(chan struct{})}
	rt := &Runtime{Sched: b, Deadline: 20 * time.Millisecond}
	start := time.Now()
	res := rt.Exec(Spec{ID: 7, Ops: []Op{R("x")}})
	if !res.DeadlineExceeded || res.Committed {
		t.Fatalf("res = %+v", res)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("blocked attempt not abandoned (waited %v)", waited)
	}
	// The incarnation was aborted so the scheduler can reclaim it.
	if _, ok := b.aborted.Load(7); !ok {
		t.Fatal("abandoned transaction was not aborted at the scheduler")
	}
	close(b.release) // let the straggler goroutine drain
}

// TestAdmitShedsTyped wires a controller with a full queue: the second
// transaction must come back Shed without touching the scheduler.
func TestAdmitShedsTyped(t *testing.T) {
	ctrl := admit.NewController(admit.Options{
		Limiter: admit.LimiterOptions{Initial: 1, Min: 1, Max: 1, QueuePerSlot: 1},
	})
	b := &blockingSched{release: make(chan struct{})}
	rt := &Runtime{Sched: b, Admit: ctrl, AttemptTimeout: time.Hour}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt.ExecCtx(context.Background(), Spec{ID: 1, Ops: []Op{R("x")}})
	}()
	// Wait for txn 1 to hold the only slot.
	deadline := time.Now().Add(time.Second)
	for ctrl.InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("txn 1 never admitted")
		}
		time.Sleep(50 * time.Microsecond)
	}
	// Fill the queue with a second waiter.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt.ExecCtx(context.Background(), Spec{ID: 2, Ops: []Op{R("x")}})
	}()
	stats := func() admit.Stats { return ctrl.Stats() }
	for deadline = time.Now().Add(time.Second); ; {
		if st := stats(); st.InFlight == 1 && st.Shed == 0 {
			// A queued waiter is not directly observable; give it a moment.
			time.Sleep(time.Millisecond)
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	res := rt.ExecCtx(context.Background(), Spec{ID: 3, Ops: []Op{R("x")}})
	if !res.Shed || res.Attempts != 0 || res.Committed {
		t.Fatalf("res = %+v", res)
	}
	close(b.release)
	wg.Wait()
	if ctrl.Stats().Shed != 1 {
		t.Fatalf("shed = %d", ctrl.Stats().Shed)
	}
}

// TestAgedTransactionCommits drives one transaction past the elder
// threshold against a scheduler that aborts it ten times. A lone
// transaction is always the oldest live one, so every abort, before its
// promotion and after, decides the express lane's scale (0.25): a short
// jittered sleep, never a zero one, which would hot-loop against the
// reseed-past-the-blocker rule (see admit.AgingOptions.ExpressScale).
// The scales are read from the controller directly, so nothing sleeps;
// the runtime run then checks the elder commits with no back-off base.
func TestAgedTransactionCommits(t *testing.T) {
	opts := admit.Options{Aging: admit.AgingOptions{ElderAfter: 3}}
	ctrl := admit.NewController(opts)
	if err := ctrl.Admit(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 10; n++ {
		if scale := ctrl.OnAbort(1, 99); scale != 0.25 {
			t.Fatalf("abort %d: scale %v, want the express lane's 0.25", n, scale)
		}
		want := int64(0)
		if n >= 3 {
			want = 1
		}
		if got := ctrl.Stats().Elders; got != want {
			t.Fatalf("after abort %d: elders = %d, want %d", n, got, want)
		}
	}

	ctrl = admit.NewController(opts)
	rt := &Runtime{Sched: &abortNTimes{n: 10}, Admit: ctrl}
	res := rt.Exec(Spec{ID: 1, Ops: []Op{W("x")}})
	if !res.Committed || res.Attempts != 11 {
		t.Fatalf("res = %+v", res)
	}
	if ctrl.Stats().Elders != 1 {
		t.Fatalf("elders = %d", ctrl.Stats().Elders)
	}
}

type abortNTimes struct {
	mu sync.Mutex
	n  int
}

func (a *abortNTimes) Name() string                             { return "abortN" }
func (a *abortNTimes) Begin(int)                                {}
func (a *abortNTimes) Abort(int)                                {}
func (a *abortNTimes) Commit(int) error                         { return nil }
func (a *abortNTimes) Read(txn int, item string) (int64, error) { return 0, nil }
func (a *abortNTimes) Write(txn int, item string, v int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n > 0 {
		a.n--
		return sched.Abort(txn, 99, "induced")
	}
	return nil
}

// TestDeadlineErrorTyped checks the typed error plumbing end to end.
func TestDeadlineErrorTyped(t *testing.T) {
	err := sched.DeadlineExceeded(4, time.Second, "backoff")
	var de *sched.DeadlineError
	if !errors.As(err, &de) || de.Txn != 4 || de.Stage != "backoff" {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, sched.ErrDeadlineExceeded) {
		t.Fatal("errors.Is(ErrDeadlineExceeded) false")
	}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}
