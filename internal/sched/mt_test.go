package sched

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/dmt"
	"repro/internal/engine"
	"repro/internal/intern"
	"repro/internal/nested"
	"repro/internal/storage"
)

func TestMTCommitPublishes(t *testing.T) {
	st := storage.New()
	m := NewMT(st, MTOptions{Core: engine.Options{K: 2}})
	m.Begin(1)
	if _, err := m.Read(1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(1, "x", 7); err != nil {
		t.Fatal(err)
	}
	if st.Get("x") != 0 {
		t.Fatal("dirty write visible")
	}
	if err := m.Commit(1); err != nil {
		t.Fatal(err)
	}
	if st.Get("x") != 7 {
		t.Fatal("write lost")
	}
}

func TestMTReadYourOwnWrite(t *testing.T) {
	m := NewMT(storage.New(), MTOptions{Core: engine.Options{K: 2}})
	m.Begin(1)
	if err := m.Write(1, "x", 3); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read(1, "x")
	if err != nil || v != 3 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}

func TestMTNames(t *testing.T) {
	st := storage.New()
	if got := NewMT(st, MTOptions{Core: engine.Options{K: 3}}).Name(); got != "MT(3)" {
		t.Fatalf("Name = %q", got)
	}
	if got := NewMT(st, MTOptions{Core: engine.Options{K: 3}, DeferWrites: true}).Name(); got != "MT(3)/deferred" {
		t.Fatalf("Name = %q", got)
	}
	if got := NewComposite(st, 2, engine.Options{}).Name(); got != "MT(2+)" {
		t.Fatalf("Name = %q", got)
	}
	// The shells name the family and the lifecycle variant, whichever
	// lifecycle they wrap.
	for want, s := range map[string]Scheduler{
		"MT(3)/striped/deferred": NewMTStriped(st, MTOptions{Core: engine.Options{K: 3}, DeferWrites: true}),
		"MT(3)/striped/mono":     NewMTStriped(st, MTOptions{Core: engine.Options{K: 3, MonotonicEncoding: true}}),
		"MT(3)/deferred":         Reference(NewMTStriped(st, MTOptions{Core: engine.Options{K: 3}, DeferWrites: true}), st),
		"MT(3+)/coarse":          Reference(NewComposite(st, 3, engine.Options{}), st),
		"MT(2,2)":                NewNested(st, NestedOptions{Ks: []int{2, 2}}),
		"MT(2,3)/coarse":         Reference(NewNested(st, NestedOptions{Ks: []int{2, 3}}), st),
		"DMT/3sites":             NewDMT(st, dmt.Options{K: 2, Sites: 3}),
		"DMT/3sites/coarse":      Reference(NewDMT(st, dmt.Options{K: 2, Sites: 3}), st),
	} {
		if got := s.Name(); got != want {
			t.Fatalf("Name = %q, want %q", got, want)
		}
	}
}

func TestMTImmediateRejectsConflictingWrite(t *testing.T) {
	m := NewMT(storage.New(), MTOptions{Core: engine.Options{K: 2}})
	// Fig. 5 shape: W1[x] W2[x] R3[y] then W3[x] must abort.
	m.Begin(1)
	if err := m.Write(1, "x", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(1); err != nil {
		t.Fatal(err)
	}
	m.Begin(2)
	if err := m.Write(2, "x", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(2); err != nil {
		t.Fatal(err)
	}
	m.Begin(3)
	if _, err := m.Read(3, "y"); err != nil {
		t.Fatal(err)
	}
	err := m.Write(3, "x", 3)
	if !errors.Is(err, ErrAbort) {
		t.Fatalf("want abort, got %v", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Blocker != 2 {
		t.Fatalf("blocker = %+v", err)
	}
}

func TestMTDeferredValidatesAtCommit(t *testing.T) {
	m := NewMT(storage.New(), MTOptions{Core: engine.Options{K: 2}, DeferWrites: true})
	m.Begin(3)
	if _, err := m.Read(3, "y"); err != nil {
		t.Fatal(err)
	}
	// Deferred mode: the write buffers fine...
	if err := m.Write(3, "x", 3); err != nil {
		t.Fatal(err)
	}
	// ...while two later writers move WT(x) past T3.
	m.Begin(1)
	if err := m.Write(1, "x", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(1); err != nil {
		t.Fatal(err)
	}
	m.Begin(2)
	if err := m.Write(2, "x", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(2); err != nil {
		t.Fatal(err)
	}
	// Commit-time validation of T3's write must fail (TS(3) < TS(2)).
	if err := m.Commit(3); !errors.Is(err, ErrAbort) {
		t.Fatalf("want commit abort, got %v", err)
	}
}

func TestMTStarvationFixAcrossRetries(t *testing.T) {
	m := NewMT(storage.New(), MTOptions{
		Core: engine.Options{K: 2, StarvationAvoidance: true},
	})
	m.Begin(1)
	m.Write(1, "x", 1)
	m.Commit(1)
	m.Begin(2)
	m.Write(2, "x", 2)
	m.Commit(2)
	m.Begin(3)
	if _, err := m.Read(3, "y"); err != nil {
		t.Fatal(err)
	}
	// T4's read is ordered after T3's, so T3 cannot be raised in place
	// and its write takes the abort path.
	m.Begin(4)
	if _, err := m.Read(4, "y"); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(3, "x", 3); !errors.Is(err, ErrAbort) {
		t.Fatalf("setup: want abort, got %v", err)
	}
	m.Abort(3)
	// Retry with the same id: the reseeded vector lets it through.
	m.Begin(3)
	if _, err := m.Read(3, "y"); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(3, "x", 3); err != nil {
		t.Fatalf("retried write rejected: %v", err)
	}
	if err := m.Commit(3); err != nil {
		t.Fatal(err)
	}
}

func TestMTThomasRuleDropsWrite(t *testing.T) {
	st := storage.New()
	m := NewMT(st, MTOptions{Core: engine.Options{K: 2, ThomasWriteRule: true}})
	// Build TS(2) < TS(1) via a read-write conflict on z (T2 reads, T1
	// writes — no dirty read involved), then T1 writes x and commits;
	// T2's obsolete write of x is accepted-and-ignored.
	m.Begin(2)
	if _, err := m.Read(2, "z"); err != nil {
		t.Fatal(err)
	}
	m.Begin(1)
	if err := m.Write(1, "z", 7); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(1, "x", 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(2, "x", 20); err != nil {
		t.Fatalf("Thomas write should be accepted-and-ignored: %v", err)
	}
	if err := m.Commit(2); err != nil {
		t.Fatal(err)
	}
	if st.Get("x") != 10 {
		t.Fatalf("x = %d, want 10 (obsolete write dropped)", st.Get("x"))
	}
	if st.Get("z") != 7 {
		t.Fatalf("z = %d, want 7", st.Get("z"))
	}
}

// An operation without Begin — a stray from an abandoned (deadline- or
// timeout-expired) attempt whose incarnation was already aborted — must
// answer with a plain abort, not a panic: the runtime's abandonment
// design guarantees such stragglers exist.
func TestMTOpWithoutBeginAborts(t *testing.T) {
	m := NewMT(storage.New(), MTOptions{Core: engine.Options{K: 2}})
	if _, err := m.Read(1, "x"); !errors.Is(err, ErrAbort) {
		t.Fatalf("read without Begin: err = %v, want ErrAbort", err)
	}
	if err := m.Write(1, "x", 1); !errors.Is(err, ErrAbort) {
		t.Fatalf("write without Begin: err = %v, want ErrAbort", err)
	}
	if err := m.Commit(1); !errors.Is(err, ErrAbort) {
		t.Fatalf("commit without Begin: err = %v, want ErrAbort", err)
	}
}

func TestCompositeRuntimeBasic(t *testing.T) {
	st := storage.New()
	c := NewComposite(st, 2, engine.Options{})
	c.Begin(1)
	if _, err := c.Read(1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(1, "x", 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(1); err != nil {
		t.Fatal(err)
	}
	if st.Get("x") != 5 {
		t.Fatal("write lost")
	}
}

func TestCompositeEpochRestart(t *testing.T) {
	st := storage.New()
	c := NewComposite(st, 1, engine.Options{}) // single subprotocol: easy to stop
	// Drive MT(1) into a reject: Fig. 5 shape.
	c.Begin(1)
	c.Write(1, "x", 1)
	if err := c.Commit(1); err != nil {
		t.Fatal(err)
	}
	// T3 reads y early, so its scalar timestamp precedes T2's.
	c.Begin(3)
	c.Begin(4)
	if _, err := c.Read(3, "y"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(4, "z"); err != nil {
		t.Fatal(err)
	}
	c.Begin(2)
	c.Write(2, "x", 2)
	if err := c.Commit(2); err != nil {
		t.Fatal(err)
	}
	// T3's conflicting write (validated at commit) stops MT(1): all
	// subprotocols stopped, epoch restart.
	if err := c.Write(3, "x", 3); err != nil {
		t.Fatalf("deferred write must buffer: %v", err)
	}
	if err := c.Commit(3); !errors.Is(err, ErrAbort) {
		t.Fatalf("want abort, got %v", err)
	}
	// T4 belongs to the old epoch: its next operation aborts too.
	if _, err := c.Read(4, "z"); !errors.Is(err, ErrAbort) {
		t.Fatal("old-epoch transaction survived the restart")
	}
	c.Abort(4)
	// Fresh transactions proceed in the new epoch.
	c.Begin(5)
	if _, err := c.Read(5, "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(5); err != nil {
		t.Fatal(err)
	}
}

func TestMTConcurrentUse(t *testing.T) {
	st := storage.New()
	m := NewMT(st, MTOptions{Core: engine.Options{K: 3, StarvationAvoidance: true}})
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed := 0
	for w := 1; w <= 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for attempt := 0; attempt < 50; attempt++ {
				m.Begin(id)
				if _, err := m.Read(id, "a"); err != nil {
					m.Abort(id)
					continue
				}
				if err := m.Write(id, "b", int64(id)); err != nil {
					m.Abort(id)
					continue
				}
				if err := m.Commit(id); err != nil {
					m.Abort(id)
					continue
				}
				mu.Lock()
				committed++
				mu.Unlock()
				return
			}
		}(w)
	}
	wg.Wait()
	if committed == 0 {
		t.Fatal("no transaction committed")
	}
}

// The nested runtime must not keep one level-0 vector per transaction
// forever: a finished transaction's vector goes once no item names it
// as RT or WT, so the table stays bounded by items + live transactions
// however many transactions have committed.
func TestNestedReclaimsFinishedVectors(t *testing.T) {
	st := storage.New()
	items := []string{"a", "b", "c", "d"}
	for _, x := range items {
		st.Set(x, 0)
	}
	for _, coarse := range []bool{false, true} {
		prod := NewNested(st, NestedOptions{
			Ks:     []int{2, 2},
			UnitOf: func(txn, lvl int) int { return txn % 3 },
		})
		var n Scheduler = prod
		proto := prod.Protocol()
		if coarse {
			ref := Reference(prod, st)
			n, proto = ref, ref.sched.(*nested.Scheduler)
		}
		committed := 0
		for txn := 1; committed < 10000; txn++ {
			n.Begin(txn)
			_, err := n.Read(txn, items[txn%len(items)])
			if err == nil {
				err = n.Write(txn, items[(txn+1)%len(items)], int64(txn))
			}
			if err == nil {
				err = n.Commit(txn)
			}
			if err != nil {
				n.Abort(txn)
				continue
			}
			committed++
			// T_0, at most an RT and a WT holder per item, nobody live.
			if got, bound := proto.LiveVectors(), 1+2*len(items); got > bound {
				t.Fatalf("coarse=%v: %d level-0 vectors after %d commits, bound %d", coarse, got, committed, bound)
			}
		}
	}
}

// A steady-state step through the serial wrapper — known transaction,
// known item, mutex, id-indexed RT/WT — allocates nothing on either
// caller-serialized protocol: no Op, no name, no Decision is built below
// the Scheduler methods.
func TestSerialStepAllocFree(t *testing.T) {
	names := intern.New()
	x, y := names.ID("x"), names.ID("y")
	kernels := map[string]kernel{
		"engine": engine.NewSchedulerInterned(engine.Options{K: 3, HotThreshold: 2}, names),
		"nested": nested.NewSchedulerInterned(nested.Options{
			Ks:     []int{2, 2},
			UnitOf: func(txn, lvl int) int { return txn % 2 },
		}, names),
	}
	for name, k := range kernels {
		s := &serial{k: k}
		step := func() {
			s.StepReadID(1, x)
			s.StepWriteID(2, y)
			s.StepReadID(2, x)
			s.StepReadID(1, y)
		}
		step() // first use creates the two vectors and grows the item slices
		if n := testing.AllocsPerRun(200, step); n != 0 {
			t.Errorf("%s: serial step allocated %v/run, want 0", name, n)
		}
	}
}
