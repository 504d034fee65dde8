package dmt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/oplog"
)

func TestPanicsOnBadOptions(t *testing.T) {
	for _, opts := range []Options{{K: 0, Sites: 1}, {K: 2, Sites: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCluster(%+v) did not panic", opts)
				}
			}()
			NewCluster(opts)
		}()
	}
}

func randomTwoStep(rng *rand.Rand, nTxns, nItems int) *oplog.Log {
	items := []string{"x", "y", "z"}[:nItems]
	type pend struct{ r, w oplog.Op }
	var pends []pend
	for t := 1; t <= nTxns; t++ {
		pends = append(pends, pend{
			oplog.R(t, items[rng.Intn(nItems)]),
			oplog.W(t, items[rng.Intn(nItems)]),
		})
	}
	var ops []oplog.Op
	emitted := make([]int, len(pends))
	for len(ops) < 2*len(pends) {
		i := rng.Intn(len(pends))
		if emitted[i] == 0 {
			ops = append(ops, pends[i].r)
			emitted[i] = 1
		} else if emitted[i] == 1 {
			ops = append(ops, pends[i].w)
			emitted[i] = 2
		}
	}
	return oplog.NewLog(ops...)
}

// With a single site, DMT(k) makes exactly the decisions of MT(k): the
// decentralized machinery reduces to the centralized protocol.
func TestSingleSiteMatchesMTk(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 800; trial++ {
		l := randomTwoStep(rng, 4, 3)
		c := NewCluster(Options{K: 3, Sites: 1})
		s := engine.NewScheduler(engine.Options{K: 3})
		for idx, op := range l.Ops {
			dc := c.Step(op)
			ds := s.Step(op)
			if dc.Verdict != ds.Verdict {
				t.Fatalf("log %v op %d (%v): dmt=%v core=%v", l, idx, op, dc.Verdict, ds.Verdict)
			}
			if dc.Verdict == core.Reject {
				break
			}
		}
	}
}

// Multi-site DMT(k) must still accept only D-serializable prefixes, and
// should agree with centralized MT(k) on the vast majority of logs (the
// site-tagged counters may order k-th elements slightly differently).
func TestMultiSiteAcceptsOnlyDSR(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	agree, total := 0, 0
	for trial := 0; trial < 600; trial++ {
		l := randomTwoStep(rng, 4, 3)
		c := NewCluster(Options{K: 3, Sites: 3})
		n := 0
		for _, op := range l.Ops {
			if c.Step(op).Verdict == core.Reject {
				break
			}
			n++
		}
		if n > 0 && !classify.DSR(l.Prefix(n)) {
			t.Fatalf("non-DSR prefix accepted: %v", l.Prefix(n))
		}
		total++
		if (n == l.Len()) == engine.Accepts(3, l) {
			agree++
		}
	}
	if agree*10 < total*9 {
		t.Fatalf("agreement with MT(k) too low: %d/%d", agree, total)
	}
}

func TestMessageCounting(t *testing.T) {
	// All transactions at site 0, all items at site 1: every operation
	// crosses sites for the item entry and once per remote vector.
	c := NewCluster(Options{
		K: 2, Sites: 2,
		HomeOfTxn:  func(int) int { return 0 },
		HomeOfItem: func(string) int { return 1 },
	})
	if d := c.Step(oplog.R(1, "x")); d.Verdict != core.Accept {
		t.Fatal("R1[x] rejected")
	}
	// One item access (2 msgs); vectors of T1, RT=0, WT=0 all live at
	// site 0 = acting site (0 msgs).
	if got := c.Messages(); got != 2 {
		t.Fatalf("Messages = %d, want 2", got)
	}
	// A fully local deployment exchanges none.
	c2 := NewCluster(Options{
		K: 2, Sites: 2,
		HomeOfTxn:  func(int) int { return 0 },
		HomeOfItem: func(string) int { return 0 },
	})
	c2.Step(oplog.R(1, "x"))
	if got := c2.Messages(); got != 0 {
		t.Fatalf("local Messages = %d, want 0", got)
	}
}

func TestKthElementsGloballyUnique(t *testing.T) {
	// Force many counter allocations across sites and verify all k-th
	// elements are distinct.
	c := NewCluster(Options{K: 1, Sites: 3})
	var logOps []oplog.Op
	for i := 1; i <= 12; i++ {
		logOps = append(logOps, oplog.W(i, "x"))
	}
	seen := map[int64]int{}
	for _, op := range logOps {
		if d := c.Step(op); d.Verdict != core.Accept {
			t.Fatalf("%v rejected", op)
		}
	}
	for i := 1; i <= 12; i++ {
		e := c.Vector(i).Elem(1)
		if !e.Defined {
			t.Fatalf("TS(%d,1) undefined", i)
		}
		if prev, dup := seen[e.V]; dup {
			t.Fatalf("duplicate k-th element %d for T%d and T%d", e.V, prev, i)
		}
		seen[e.V] = i
	}
}

func TestSyncCountersReducesSkew(t *testing.T) {
	c := NewCluster(Options{
		K: 1, Sites: 3,
		HomeOfTxn: func(txn int) int { return 0 }, // unbalanced: site 0 only
	})
	for i := 1; i <= 10; i++ {
		c.Step(oplog.W(i, "x"))
	}
	if c.CounterSkew() == 0 {
		t.Fatal("expected counter skew under unbalanced load")
	}
	c.SyncCounters()
	if got := c.CounterSkew(); got != 0 {
		t.Fatalf("skew after sync = %d", got)
	}
}

// Torture: concurrent transactions over shared items; run with -race.
// Every operation decision must be internally consistent (no panics from
// overwriting defined elements) and committed orderings acyclic.
func TestConcurrentStepTorture(t *testing.T) {
	c := NewCluster(Options{K: 3, Sites: 4})
	const workers = 8
	const txnsPer = 25
	items := []string{"a", "b", "c", "d", "e"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < txnsPer; i++ {
				txn := w*txnsPer + i + 1
				for op := 0; op < 3; op++ {
					item := items[rng.Intn(len(items))]
					var o oplog.Op
					if rng.Intn(2) == 0 {
						o = oplog.R(txn, item)
					} else {
						o = oplog.W(txn, item)
					}
					if d := c.Step(o); d.Verdict == core.Reject {
						break // abandon this transaction
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Spot-check: the established relation over a sample of vectors is
	// antisymmetric.
	for a := 1; a <= 20; a++ {
		for b := a + 1; b <= 20; b++ {
			va, vb := c.Vector(a), c.Vector(b)
			if va.Less(vb) && vb.Less(va) {
				t.Fatalf("antisymmetry violated for T%d, T%d", a, b)
			}
		}
	}
}

func TestLockRetriesCounter(t *testing.T) {
	c := NewCluster(Options{K: 2, Sites: 2})
	c.Step(oplog.R(1, "x"))
	if c.LockRetries() < 0 {
		t.Fatal("negative retries")
	}
}

// The line-9 slot-in path works across sites too.
func TestDistributedReadSlotIn(t *testing.T) {
	c := NewCluster(Options{K: 2, Sites: 2})
	l := oplog.MustParse("R1[x] W2[x] W2[z] R3[x] R4[z] W3[z]")
	if ok, at := c.AcceptLog(l); !ok {
		t.Fatalf("setup rejected at %d", at)
	}
	if d := c.Step(oplog.R(4, "x")); d.Verdict != core.Accept {
		t.Fatalf("slot-in read rejected: %+v", d)
	}
}

func TestAcceptLogReportsIndex(t *testing.T) {
	c := NewCluster(Options{K: 2, Sites: 2})
	// Cycle: must reject at the final op.
	l := oplog.MustParse("R1[x] R2[y] W2[x] W1[y]")
	ok, at := c.AcceptLog(l)
	if ok || at != 3 {
		t.Fatalf("ok=%v at=%d", ok, at)
	}
}

func ExampleCluster_Step() {
	c := NewCluster(Options{K: 2, Sites: 2})
	d := c.Step(oplog.R(1, "x"))
	fmt.Println(d.Verdict)
	// Output: accept
}

// A transaction that steps and finishes while a sweep is between its
// scan and its drop pass must keep its vector: the scan could not have
// seen the index slot it took, so only transactions that had finished
// before the scan began are candidates.
func TestGCKeepsVectorOfTransactionFinishedMidSweep(t *testing.T) {
	c := NewCluster(Options{K: 2, Sites: 2})
	c.Step(oplog.R(1, "x"))
	c.Commit(1)
	candidates, referenced := c.gcScan()
	// T2 becomes RT(x) and commits after the scan read x's index entry.
	if d := c.Step(oplog.R(2, "x")); d.Verdict != core.Accept {
		t.Fatalf("R2[x]: %+v", d)
	}
	c.Commit(2)
	want := c.Vector(2).String()
	c.gcSweep(candidates, referenced)
	if rt := c.sites[c.homeOfItem("x")].items["x"].rt; rt != 2 {
		t.Fatalf("RT(x) = %d, want 2", rt)
	}
	if _, ok := c.sites[c.homeOfTxn(2)].vecs[2]; !ok {
		t.Fatalf("sweep dropped TS(2) = %s while RT(x) still names T2", want)
	}
	// The next sweep sees T2 referenced and T1 (displaced, finished) not.
	if n := c.GC(); n != 1 {
		t.Fatalf("second sweep dropped %d vectors, want 1 (T1)", n)
	}
	if got := c.Vector(2).String(); got != want {
		t.Fatalf("TS(2) = %s after GC, want %s", got, want)
	}
}

// GC sweeps while transactions step on the same items; run with -race.
// The sweep must read an index entry under the item lock StepItem
// writes it under, not under the site lock.
func TestGCConcurrentWithSteps(t *testing.T) {
	c := NewCluster(Options{K: 3, Sites: 2})
	items := []string{"a", "b", "c"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.GC()
			}
		}
	}()
	for txn := 1; txn <= 2000; txn++ {
		for _, x := range items {
			if d := c.Step(oplog.R(txn, x)); d.Verdict == core.Reject {
				break
			}
		}
		c.Commit(txn)
	}
	close(stop)
	wg.Wait()
}

// A transaction that was aborted without a blocker is marked finished;
// the runtime then re-runs it under the same id. The restarted
// incarnation is live again from its first step, so a sweep must not
// take the vector it is building: here T5 is ordered before T6 (R5[x]
// W6[x]) and stops being referenced (R7[x]); if the sweep dropped
// TS(5), W5[y] after R6[y] would be encoded against an empty vector and
// accepted, closing the cycle T5 -> T6 -> T5.
func TestGCKeepsVectorOfRestartedTransaction(t *testing.T) {
	c := NewCluster(Options{K: 2, Sites: 2})
	c.Abort(5, 0) // e.g. "read over uncommitted writer": no blocker to reseed past
	for _, op := range []oplog.Op{oplog.R(5, "x"), oplog.W(6, "x"), oplog.R(7, "x"), oplog.R(6, "y")} {
		if d := c.Step(op); d.Verdict != core.Accept {
			t.Fatalf("%s: %+v", op, d)
		}
	}
	c.GC()
	if d := c.Step(oplog.W(5, "y")); d.Verdict != core.Reject {
		t.Fatalf("W5[y] after GC: %v, want Reject (TS(5) < TS(6) was established)", d.Verdict)
	}
}
