package txn

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/engine"
	"repro/internal/explore/hook"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// rejecter is a scheduler whose first len(errs) Writes are rejected
// with the given errors in turn; everything else succeeds.
type rejecter struct {
	errs   []error
	begins int
}

func (s *rejecter) Name() string                    { return "rejecter" }
func (s *rejecter) Begin(int)                       { s.begins++ }
func (s *rejecter) Abort(int)                       {}
func (s *rejecter) Commit(int) error                { return nil }
func (s *rejecter) Read(int, string) (int64, error) { return 0, nil }
func (s *rejecter) Write(int, string, int64) error {
	if len(s.errs) == 0 {
		return nil
	}
	err := s.errs[0]
	s.errs = s.errs[1:]
	return err
}

// hookLog records the runtime's explore events.
type hookLog struct {
	mu     sync.Mutex
	points []hook.Point
}

func (l *hookLog) add(p hook.Point) {
	l.mu.Lock()
	l.points = append(l.points, p)
	l.mu.Unlock()
}
func (l *hookLog) Yield(_ uint64, p hook.Point)   { l.add(p) }
func (l *hookLog) Observe(_ uint64, p hook.Point) { l.add(p) }
func (l *hookLog) Acquire(uint64, uint64, hook.Point, func() bool) bool {
	return false
}
func (l *hookLog) Release(uint64, uint64) {}

// of returns the B values recorded at site.
func (l *hookLog) of(site string) []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var bs []int64
	for _, p := range l.points {
		if p.Site == site {
			bs = append(bs, p.B)
		}
	}
	return bs
}

// An abort that names a finished blocker retries without sleeping — the
// back-off base here is an hour — while the explore events still fire
// with the scale the admission controller really chose (the zero-express
// oracle keys on it): 1 without a controller, the express lane's 0.25
// for the oldest live transaction with one.
func TestFinishedBlockerRetriesWithoutWaiting(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ctrl  *admit.Controller
		scale int64 // ppm
	}{
		{"no-admit", nil, 1_000_000},
		{"express", admit.NewController(admit.Options{}), 250_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &hookLog{}
			hook.Install(log)
			defer hook.Uninstall()
			s := &rejecter{errs: []error{&sched.AbortError{Txn: 1, Blocker: 7, Reason: "induced", BlockerFinished: true}}}
			rt := &Runtime{Sched: s, Backoff: time.Hour, Admit: tc.ctrl}
			done := make(chan Result, 1)
			go func() { done <- rt.Exec(Spec{ID: 1, Ops: []Op{W("x")}}) }()
			select {
			case res := <-done:
				if !res.Committed || res.Attempts != 2 || s.begins != 2 {
					t.Fatalf("res = %+v, begins = %d", res, s.begins)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("runtime backed off against a finished blocker")
			}
			if got := log.of("txn.backoff"); len(got) != 1 || got[0] != tc.scale {
				t.Fatalf("txn.backoff events = %v, want one at %d ppm", got, tc.scale)
			}
			if got := log.of("txn.restart"); len(got) != 1 || got[0] != 1 {
				t.Fatalf("txn.restart events = %v, want one for conflict 1", got)
			}
		})
	}
}

// An abort whose blocker is in flight, or unknown (the zero value every
// non-engine scheduler reports), still waits: under an hour-long base
// the retry never launches before the caller's deadline.
func TestLiveOrUnknownBlockerStillWaits(t *testing.T) {
	for name, err := range map[string]error{
		"live":    &sched.AbortError{Txn: 1, Blocker: 7, Reason: "induced"},
		"unknown": sched.Abort(1, 0, "induced"),
	} {
		t.Run(name, func(t *testing.T) {
			s := &rejecter{errs: []error{err}}
			rt := &Runtime{Sched: s, Backoff: time.Hour}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			res := rt.ExecCtx(ctx, Spec{ID: 1, Ops: []Op{W("x")}})
			if res.Committed || !res.DeadlineExceeded || res.Attempts != 1 || s.begins != 1 {
				t.Fatalf("res = %+v, begins = %d: the retry did not wait", res, s.begins)
			}
		})
	}
}

// Only the retries that waited widen the back-off: after six immediate
// retries against finished blockers, the first wait against a live one
// draws from [0, 2·Backoff] as a first conflict's does, not from the
// 64·Backoff a seventh conflict would have reached.
func TestImmediateRetriesDoNotWidenBackoff(t *testing.T) {
	const base, seed = 10 * time.Millisecond, 3
	// The first draw is the same fraction of whatever maximum it is
	// scaled to; pick an id whose fraction is at least a half, so the two
	// exponents are 10-20ms against 320-640ms.
	id, want := 0, time.Duration(0)
	for want < base {
		id++
		j := jitter(jitterSeed(seed, id))
		want = time.Duration(j.upTo(int64(base) << 1))
	}
	finished := &sched.AbortError{Txn: id, Blocker: 7, Reason: "induced", BlockerFinished: true}
	live := &sched.AbortError{Txn: id, Blocker: 8, Reason: "induced"}
	s := &rejecter{errs: []error{finished, finished, finished, finished, finished, finished, live}}
	rt := &Runtime{Sched: s, Backoff: base, Seed: seed}
	start := time.Now()
	res := rt.Exec(Spec{ID: id, Ops: []Op{W("x")}})
	took := time.Since(start)
	if !res.Committed || res.Attempts != 8 {
		t.Fatalf("res = %+v", res)
	}
	if took < want || took > 15*want {
		t.Fatalf("eight attempts took %v, want one wait of %v (32x that if immediate retries counted)", took, want)
	}
}

// The jitter stepper is a function of (Seed, ID) alone, differs across
// seeds, and every draw lands in [0, max].
func TestJitterStepper(t *testing.T) {
	draws := func(seed int64, id int) [64]int64 {
		j := jitter(jitterSeed(seed, id))
		var out [64]int64
		for i := range out {
			out[i] = j.upTo(1000)
		}
		return out
	}
	a := draws(7, 42)
	if a != draws(7, 42) {
		t.Fatal("same (Seed, ID) drew different jitter")
	}
	if a == draws(9, 42) || a == draws(7, 43) {
		t.Fatal("jitter does not depend on both Seed and ID")
	}
	j := jitter(jitterSeed(0, 1))
	for _, max := range []int64{0, 1, 2, 7, 1000, 1<<62 - 1, 1<<63 - 1} {
		seen := map[int64]bool{}
		for i := 0; i < 2000; i++ {
			v := j.upTo(max)
			if v < 0 || v > max {
				t.Fatalf("upTo(%d) = %d", max, v)
			}
			seen[v] = true
		}
		if max > 0 && max <= 7 && len(seen) != int(max)+1 {
			t.Fatalf("upTo(%d) reached %d of %d values", max, len(seen), max+1)
		}
	}
}

// A committing 4-op transaction on the volatile path allocates nothing
// in the runtime or below it, with and without a Value function.
func TestExecCtxCommitAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random and allocates on its own")
	}
	ops := []Op{R("a"), R("b"), W("a"), W("b")}
	sum := func(_ string, reads map[string]int64) int64 { return reads["a"] + reads["b"] }
	for name, value := range map[string]func(string, map[string]int64) int64{"id-writes": nil, "value-fn": sum} {
		t.Run(name, func(t *testing.T) {
			rt := &Runtime{
				Sched:       sched.NewMTStriped(storage.New(), sched.MTOptions{Core: engine.Options{K: 7, StarvationAvoidance: true}}),
				MaxAttempts: 10, Backoff: 20 * time.Microsecond, Seed: 1,
			}
			ctx := context.Background()
			id := 0
			exec := func() {
				id++
				if res := rt.ExecCtx(ctx, Spec{ID: id, Ops: ops, Value: value}); !res.Committed || res.Attempts != 1 {
					t.Fatalf("res = %+v", res)
				}
			}
			for i := 0; i < 2000; i++ {
				exec() // warm the intern table, the entry pool, the read scratch
			}
			// Averaged over 500 runs, an allocation that comes once per
			// 256 fresh ids (the size of a transaction spine chunk) rounds
			// to 0 here; TestFreshIDCommitsAllocateNothing in
			// internal/sched counts the spine's allocations over 64 000
			// commits instead.
			if n := testing.AllocsPerRun(500, exec); n != 0 {
				t.Fatalf("committing ExecCtx allocates %.0f times per transaction", n)
			}
		})
	}
}

// alternator rejects every other Write with a pooled AbortError.
type alternator struct{ n int }

func (s *alternator) Name() string                    { return "alternator" }
func (s *alternator) Begin(int)                       {}
func (s *alternator) Abort(int)                       {}
func (s *alternator) Commit(int) error                { return nil }
func (s *alternator) Read(int, string) (int64, error) { return 0, nil }
func (s *alternator) Write(txn int, _ string, _ int64) error {
	if s.n++; s.n%2 == 1 {
		return sched.Abort(txn, 7, "induced")
	}
	return nil
}

// A rejection allocates nothing: the runtime reads the pooled
// AbortError, releases it, and the retry's rejection draws it again.
func TestRejectionAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random and allocates on its own")
	}
	rt := &Runtime{Sched: &alternator{}, MaxAttempts: 10}
	ctx := context.Background()
	spec := Spec{ID: 1, Ops: []Op{W("x")}}
	exec := func() {
		if res := rt.ExecCtx(ctx, spec); !res.Committed || res.Attempts != 2 {
			t.Fatalf("res = %+v", res)
		}
	}
	exec() // fill the pool
	if n := testing.AllocsPerRun(500, exec); n != 0 {
		t.Fatalf("a reject-release-retry cycle allocates %.2f times", n)
	}
}

// A read set larger than the inline capacity spills without losing
// entries.
func TestReadSetSpill(t *testing.T) {
	reads := map[string]int64{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6}
	s := readSetOf(reads)
	for item, want := range reads {
		if got, ok := s.Get(item); !ok || got != want {
			t.Fatalf("Get(%q) = %d, %v", item, got, ok)
		}
	}
	if _, ok := s.Get("z"); ok {
		t.Fatal("Get of an unread item reported a value")
	}
	if v, ok := (ReadSet{}).Get("a"); ok || v != 0 {
		t.Fatal("empty read set reported a value")
	}
}

// Two specs with the same id keep their own result slots.
func TestPoolDuplicateIDs(t *testing.T) {
	st := storage.New()
	st.Set("x", 5)
	st.Set("y", 6)
	rt := &Runtime{Sched: mt(st), MaxAttempts: 100}
	specs := []Spec{{ID: 1, Ops: []Op{R("x")}}, {ID: 1, Ops: []Op{R("y")}}}
	// One worker: ids need only be unique among concurrently live
	// transactions, which same-id specs run back to back are.
	res := rt.Pool(specs, 1)
	for i, item := range []string{"x", "y"} {
		if v, ok := res[i].Reads.Get(item); !res[i].Committed || !ok || v != int64(5+i) {
			t.Fatalf("slot %d = %+v", i, res[i])
		}
	}
}
