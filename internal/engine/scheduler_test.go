package engine

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	. "repro/internal/core"
	"repro/internal/oplog"
)

func mustAccept(t *testing.T, s *Scheduler, log string) {
	t.Helper()
	l := oplog.MustParse(log)
	ok, at := s.AcceptLog(l)
	if !ok {
		t.Fatalf("log %q rejected at op %d (%v)", log, at, l.Ops[at])
	}
}

// Example 1 (Section I-A): after W1[x] W1[y] R3[x] R2[y], T2 and T3 share
// the first element; the later W3[y] is encoded in the second dimension
// without aborting T3.
func TestExample1Vectors(t *testing.T) {
	s := NewScheduler(Options{K: 2})
	mustAccept(t, s, "W1[x] W1[y] R3[x] R2[y]")
	for txn, want := range map[int]string{1: "<1,*>", 2: "<2,*>", 3: "<2,*>"} {
		if got := s.Vector(txn).String(); got != want {
			t.Errorf("TS(%d) = %s, want %s", txn, got, want)
		}
	}
	// Continue the log: W3[y] conflicts with R2[y]; the 2nd dimension
	// encodes T2 -> T3.
	d := s.Step(oplog.W(3, "y"))
	if d.Verdict != Accept {
		t.Fatalf("W3[y] verdict = %v", d.Verdict)
	}
	for txn, want := range map[int]string{1: "<1,*>", 2: "<2,1>", 3: "<2,2>"} {
		if got := s.Vector(txn).String(); got != want {
			t.Errorf("after W3[y]: TS(%d) = %s, want %s", txn, got, want)
		}
	}
	if got := s.SerialOrder([]int{1, 2, 3}); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("serial order = %v, want [1 2 3]", got)
	}
}

// Example 1 shows the log is rejected by single-dimension protocols when
// the dependency T2 -> T3 arrives against the premature total order:
// with k = 1 every encoding is forced through the distinct counter column,
// so T3 (which got its element first) is stuck before T2.
func TestExample1SingleDimensionAborts(t *testing.T) {
	s := NewScheduler(Options{K: 1})
	mustAccept(t, s, "W1[x] W1[y] R3[x] R2[y]")
	d := s.Step(oplog.W(3, "y"))
	if d.Verdict != Reject {
		t.Fatalf("MT(1) accepted W3[y]; vectors: T2=%v T3=%v", s.Vector(2), s.Vector(3))
	}
	if d.Blocker != 2 {
		t.Errorf("blocker = %d, want 2", d.Blocker)
	}
	if d.Item != "y" {
		t.Errorf("item = %q, want y", d.Item)
	}
}

// Example 2 / Table I: exact vector evolution for
// R1[x] R2[y] R3[z] W1[y] W1[z] with k = 2.
func TestTableI(t *testing.T) {
	var got []string
	s := NewScheduler(Options{K: 2})
	step := func(op oplog.Op, wantVecs map[int]string) {
		t.Helper()
		if d := s.Step(op); d.Verdict != Accept {
			t.Fatalf("%v rejected", op)
		}
		for txn, want := range wantVecs {
			if g := s.Vector(txn).String(); g != want {
				t.Errorf("after %v: TS(%d) = %s, want %s", op, txn, g, want)
			}
		}
		got = append(got, op.String())
	}
	if v := s.Vector(0).String(); v != "<0,*>" {
		t.Fatalf("TS(0) = %s", v)
	}
	step(oplog.R(1, "x"), map[int]string{1: "<1,*>"})                         // edge a: T0->T1
	step(oplog.R(2, "y"), map[int]string{2: "<1,*>"})                         // edge b: T0->T2
	step(oplog.R(3, "z"), map[int]string{3: "<1,*>"})                         // edge c: T0->T3
	step(oplog.W(1, "y"), map[int]string{2: "<1,1>", 1: "<1,2>"})             // edge d: T2->T1
	step(oplog.W(1, "z"), map[int]string{3: "<1,0>", 1: "<1,2>", 2: "<1,1>"}) // edge e: T3->T1
	// Resulting vectors row of Table I.
	want := map[int]string{0: "<0,*>", 1: "<1,2>", 2: "<1,1>", 3: "<1,0>"}
	for txn, w := range want {
		if g := s.Vector(txn).String(); g != w {
			t.Errorf("resulting TS(%d) = %s, want %s", txn, g, w)
		}
	}
	// L is equivalent to T3 T2 T1 or T2 T3 T1; the resulting vectors
	// <1,0> < <1,1> < <1,2> pick T3 T2 T1.
	if order := s.SerialOrder([]int{1, 2, 3}); !reflect.DeepEqual(order, []int{3, 2, 1}) {
		t.Errorf("serial order = %v, want [3 2 1]", order)
	}
}

// Example 3 / Table II: a frequently accessed item chains the first
// elements 1, 2, 3 across T1, T2, T3 while the unrelated T4 = <1,4>
// stays untouched.
func TestTableII(t *testing.T) {
	s := NewScheduler(Options{K: 2})
	s.SeedVector(4, Int(1), Int(4))
	s.SetCounters(0, 5)
	mustAccept(t, s, "R1[x] W2[x] W3[x]")
	want := map[int]string{0: "<0,*>", 1: "<1,*>", 2: "<2,*>", 3: "<3,*>", 4: "<1,4>"}
	for txn, w := range want {
		if g := s.Vector(txn).String(); g != w {
			t.Errorf("TS(%d) = %s, want %s", txn, g, w)
		}
	}
	// The chained encoding enforces a total order with T4 as collateral:
	// TS(4) = <1,4> is now below TS(2) and TS(3).
	if !s.Vector(4).Less(s.Vector(2)) || !s.Vector(4).Less(s.Vector(3)) {
		t.Error("expected TS(4) < TS(2) and TS(4) < TS(3) (the paper's total-order effect)")
	}
}

// Section III-D-5: with hot-item encoding the same dependency is pushed to
// the right end of the vector, preserving incomparability with other
// prefix-sharing vectors.
func TestHotItemEncoding(t *testing.T) {
	s := NewScheduler(Options{K: 4, HotItems: map[string]bool{"x": true}})
	s.SeedVector(1, Int(1), Int(3), Undef, Undef)
	// Encode T1 -> T2 due to hot item x.
	if !s.alg.setDep(1, 2, s.tab.Vector(1), s.tab.Vector(2), s.hotID(s.names.ID("x"))) {
		t.Fatal("setDep failed")
	}
	if got := s.Vector(1).String(); got != "<1,3,1,*>" {
		t.Errorf("TS(1) = %s, want <1,3,1,*>", got)
	}
	if got := s.Vector(2).String(); got != "<1,3,2,*>" {
		t.Errorf("TS(2) = %s, want <1,3,2,*>", got)
	}
	// A vector with the shared prefix <1,*,...> remains incomparable with
	// TS(2) (no premature total order).
	s.SeedVector(5, Int(1), Undef, Undef, Undef)
	if rel, _ := s.Vector(5).Compare(s.Vector(2)); rel != Unknown {
		t.Errorf("TS(5) vs TS(2) = %v, want Unknown", rel)
	}
}

func TestHotItemEncodingCold(t *testing.T) {
	// Without the hot marker the same dependency is encoded at the normal
	// (leftmost) position.
	s := NewScheduler(Options{K: 4})
	s.SeedVector(1, Int(1), Int(3), Undef, Undef)
	if !s.alg.setDep(1, 2, s.tab.Vector(1), s.tab.Vector(2), false) {
		t.Fatal("setDep failed")
	}
	if got := s.Vector(2).String(); got != "<2,*,*,*>" {
		t.Errorf("TS(2) = %s, want <2,*,*,*>", got)
	}
}

func TestHotThresholdDynamic(t *testing.T) {
	s := NewScheduler(Options{K: 4, HotThreshold: 3})
	x := s.names.ID("x")
	if s.hotID(x) {
		t.Fatal("x hot before any access")
	}
	for i := 1; i <= 3; i++ {
		s.StepReadID(i, x)
	}
	if !s.hotID(x) {
		t.Fatal("x not hot after reaching threshold")
	}
}

// Fig. 5: W1[x] W2[x] R3[y] W3[x] starves T3 without the fix and commits
// after one restart with it.
func TestStarvationWithoutFix(t *testing.T) {
	s := NewScheduler(Options{K: 2})
	mustAccept(t, s, "W1[x] W2[x] R3[y]")
	for attempt := 0; attempt < 3; attempt++ {
		d := s.Step(oplog.W(3, "x"))
		if d.Verdict != Reject {
			t.Fatalf("attempt %d: W3[x] accepted; starvation should repeat", attempt)
		}
		s.Abort(3, d.Blocker)
		// restart: re-issue R3[y] then W3[x]
		if rd := s.Step(oplog.R(3, "y")); rd.Verdict != Accept {
			t.Fatalf("attempt %d: restart read rejected", attempt)
		}
	}
}

func TestStarvationFix(t *testing.T) {
	s := NewScheduler(Options{K: 2, StarvationAvoidance: true})
	// R4[y] is ordered after T3's read, so T3 has a successor and cannot
	// be raised in place: W3[x] takes the abort path.
	mustAccept(t, s, "W1[x] W2[x] R3[y] R4[y]")
	d := s.Step(oplog.W(3, "x"))
	if d.Verdict != Reject || d.Blocker != 2 {
		t.Fatalf("first W3[x]: got %+v", d)
	}
	s.Abort(3, d.Blocker)
	// Per the paper, TS(3) is flushed to <3,*> (TS(2,1)+1 = 3).
	if got := s.Vector(3).String(); got != "<3,*>" {
		t.Fatalf("after flush TS(3) = %s, want <3,*>", got)
	}
	// Restart T3: both operations must now be accepted.
	mustAccept(t, s, "R3[y] W3[x]")
}

// Thomas write rule: an obsolete write with TS(RT(x)) < TS(i) < TS(WT(x))
// is accepted and ignored instead of aborted.
func TestThomasWriteRule(t *testing.T) {
	run := func(thomas bool) Decision {
		s := NewScheduler(Options{K: 2, ThomasWriteRule: thomas})
		// T1 writes x with a large timestamp; T2 then tries an obsolete
		// write. Build TS(2) < TS(1) via item y first.
		mustAccept(t, s, "W2[y] R1[y] W1[x]")
		// TS(2)=<1,*> < TS(1)=<2,*>; WT(x)=1, RT(x)=0.
		return s.Step(oplog.W(2, "x"))
	}
	if d := run(false); d.Verdict != Reject {
		t.Fatalf("without Thomas rule: %v", d.Verdict)
	}
	d := run(true)
	if d.Verdict != AcceptIgnored {
		t.Fatalf("with Thomas rule: %v", d.Verdict)
	}
	if !reflect.DeepEqual(d.IgnoredItems, []string{"x"}) {
		t.Fatalf("IgnoredItems = %v", d.IgnoredItems)
	}
}

func TestThomasWriteRuleStillRejectsLateWriteUnderNewerRead(t *testing.T) {
	// If the most recent READER is ahead of the writer, the write cannot be
	// ignored: a later read should have seen it.
	s := NewScheduler(Options{K: 2, ThomasWriteRule: true})
	mustAccept(t, s, "W2[y] R1[y] W1[x] R3[x]")
	// RT(x)=3 with TS(3) > TS(1) > TS(2): T2's write must abort.
	if d := s.Step(oplog.W(2, "x")); d.Verdict != Reject {
		t.Fatalf("got %v, want Reject", d.Verdict)
	}
}

// Line 9: a read may slot between the most recent write and the most
// recent read without becoming the most recent reader.
func TestReadSlotsBetweenWriteAndRead(t *testing.T) {
	s := NewScheduler(Options{K: 2})
	mustAccept(t, s, "R1[x] W2[x] W2[z] R3[x] R4[z] W3[z]")
	// Established: TS(2) < TS(4) < TS(3); RT(x)=3, WT(x)=2.
	if !s.less(2, 4) || !s.less(4, 3) {
		t.Fatalf("setup broken: TS2=%v TS4=%v TS3=%v", s.Vector(2), s.Vector(4), s.Vector(3))
	}
	d := s.Step(oplog.R(4, "x"))
	if d.Verdict != Accept {
		t.Fatalf("R4[x] = %v, want Accept via line 9", d.Verdict)
	}
	if s.RT("x") != 3 {
		t.Errorf("RT(x) = %d, want 3 (line 10 must not update RT)", s.RT("x"))
	}
}

func TestRelaxedReadCheckAcceptsMore(t *testing.T) {
	build := func(relaxed bool) (*Scheduler, Decision) {
		s := NewScheduler(Options{K: 2, RelaxedReadCheck: relaxed})
		mustAccept(t, s, "R1[x] R2[v] W2[x] R3[x] W4[w]")
		// TS(4)=<1,*>: unordered w.r.t. WT(x)=2 (<1,2>); RT(x)=3 (<2,*>)
		// is established-greater once T4 is pinned below it.
		mustAccept(t, s, "R4[q] W3[q]") // establish TS(4) < TS(3)
		return s, s.Step(oplog.R(4, "x"))
	}
	if _, d := build(false); d.Verdict != Reject {
		t.Fatalf("strict check: got %v, want Reject", d.Verdict)
	}
	if _, d := build(true); d.Verdict != Accept {
		t.Fatalf("relaxed check: got %v, want Accept", d.Verdict)
	}
}

func TestMultiItemOpAllOrNothing(t *testing.T) {
	s := NewScheduler(Options{K: 2})
	mustAccept(t, s, "R1[x,y] W1[x,y] R2[x,y] W2[x,y]")
	// Two-step transactions with set operations compose cleanly.
	if order := s.SerialOrder([]int{1, 2}); !reflect.DeepEqual(order, []int{1, 2}) {
		t.Fatalf("order = %v", order)
	}
}

func TestCountersAdvance(t *testing.T) {
	s := NewScheduler(Options{K: 1})
	mustAccept(t, s, "W1[x] W2[x]")
	lo, hi := s.Counters()
	if lo > 0 || hi <= 1 {
		t.Fatalf("counters = (%d,%d)", lo, hi)
	}
}

func TestStorageReclamation(t *testing.T) {
	s := NewScheduler(Options{K: 2})
	mustAccept(t, s, "R1[x] W1[x]")
	s.Commit(1)
	if s.LiveVectors() != 2 { // T0 and T1 (still RT/WT of x)
		t.Fatalf("live = %d, want 2", s.LiveVectors())
	}
	mustAccept(t, s, "R2[x] W2[x]") // T2 takes over RT(x) and WT(x)
	if s.LiveVectors() != 2 {       // T0 and T2: T1 reclaimed
		t.Fatalf("after takeover live = %d, want 2", s.LiveVectors())
	}
	s.Commit(2)
	if s.LiveVectors() != 2 { // T2 still pinned as RT/WT
		t.Fatalf("after commit live = %d, want 2", s.LiveVectors())
	}
}

func TestAbortWithoutAvoidanceReclaims(t *testing.T) {
	s := NewScheduler(Options{K: 2})
	mustAccept(t, s, "W1[v]") // T1 exists, pinned on v
	mustAccept(t, s, "W2[v]") // T2 takes over; T1 unpinned but not done
	if s.LiveVectors() != 3 {
		t.Fatalf("live = %d, want 3", s.LiveVectors())
	}
	s.Abort(1, 0)
	if s.LiveVectors() != 2 {
		t.Fatalf("after abort live = %d, want 2", s.LiveVectors())
	}
}

func TestVirtualTransactionImmutable(t *testing.T) {
	s := NewScheduler(Options{K: 3})
	mustAccept(t, s, "R1[x] W1[x] R2[x] W2[x] R3[y] W3[y]")
	if got := s.Vector(0).String(); got != "<0,*,*>" {
		t.Fatalf("TS(0) = %s, want <0,*,*>", got)
	}
}

func TestTraceEvents(t *testing.T) {
	var assigns, encodes int
	s := NewScheduler(Options{K: 2, Trace: func(e Event) {
		switch e.Kind {
		case EvAssign:
			assigns++
		case EvEncode:
			encodes++
		}
	}})
	mustAccept(t, s, "W1[x] W2[x]")
	if assigns != 2 || encodes != 2 {
		t.Fatalf("assigns=%d encodes=%d, want 2 and 2", assigns, encodes)
	}
}

func TestSchedulerPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewScheduler(Options{K: 0})
}

func TestSerialOrderPanicsOnVirtual(t *testing.T) {
	s := NewScheduler(Options{K: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.SerialOrder([]int{0, 1})
}

// randomLog produces a random multi-step log over nTxns transactions and
// items, with ops per transaction up to q.
func randomLog(rng *rand.Rand, nTxns, q, nItems int) *oplog.Log {
	items := make([]string, nItems)
	for i := range items {
		items[i] = string(rune('a' + i))
	}
	var ops []oplog.Op
	for t := 1; t <= nTxns; t++ {
		n := 1 + rng.Intn(q)
		for o := 0; o < n; o++ {
			ops = append(ops, oplog.NewOp(t, oplog.Kind(rng.Intn(2)), items[rng.Intn(nItems)]))
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return oplog.NewLog(ops...)
}

// randomTwoStepLog produces a random two-step log (R_i then W_i over item
// sets of at most maxSet items) — the paper's analysis model.
func randomTwoStepLog(rng *rand.Rand, nTxns, nItems, maxSet int) *oplog.Log {
	items := make([]string, nItems)
	for i := range items {
		items[i] = string(rune('a' + i))
	}
	pick := func() []string {
		n := 1 + rng.Intn(maxSet)
		out := make([]string, n)
		for i := range out {
			out[i] = items[rng.Intn(nItems)]
		}
		return out
	}
	type pend struct{ r, w oplog.Op }
	var pends []pend
	for t := 1; t <= nTxns; t++ {
		pends = append(pends, pend{oplog.R(t, pick()...), oplog.W(t, pick()...)})
	}
	var ops []oplog.Op
	emitted := make([]int, len(pends)) // 0: nothing, 1: read, 2: both
	for len(ops) < 2*len(pends) {
		i := rng.Intn(len(pends))
		switch emitted[i] {
		case 0:
			ops = append(ops, pends[i].r)
			emitted[i] = 1
		case 1:
			ops = append(ops, pends[i].w)
			emitted[i] = 2
		}
	}
	return oplog.NewLog(ops...)
}

// Theorem 2: every log accepted by MT(k) is D-serializable (its dependency
// digraph is acyclic), for various k and op shapes.
func TestTheorem2AcceptedLogsAreDSR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	accepted := 0
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(4)
		l := randomLog(rng, 2+rng.Intn(3), 3, 2+rng.Intn(2))
		s := NewScheduler(Options{K: k})
		// Run to first rejection; the accepted prefix must be DSR.
		n := 0
		for _, op := range l.Ops {
			if s.Step(op).Verdict == Reject {
				break
			}
			n++
		}
		if n == 0 {
			continue
		}
		accepted++
		g, _ := l.Prefix(n).DependencyGraph()
		if g.HasCycle() {
			t.Fatalf("accepted prefix has cyclic dependencies: %v", l.Prefix(n))
		}
	}
	if accepted < 100 {
		t.Fatalf("only %d informative trials", accepted)
	}
}

// The serialization order extracted from the vectors respects every direct
// dependency of an accepted log.
func TestSerialOrderRespectsDependencies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 1000; trial++ {
		l := randomTwoStepLog(rng, 3, 2, 2)
		s := NewScheduler(Options{K: 3})
		if ok, _ := s.AcceptLog(l); !ok {
			continue
		}
		checked++
		order := s.SerialOrder(l.Transactions())
		pos := map[int]int{}
		for p, txn := range order {
			pos[txn] = p
		}
		g, ids := l.DependencyGraph()
		for i := range ids {
			for _, j := range g.Succ(i) {
				if pos[ids[i]] >= pos[ids[j]] {
					t.Fatalf("log %v: dependency %d->%d violated by order %v",
						l, ids[i], ids[j], order)
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d accepted logs checked", checked)
	}
}

// Lemma 4 / Theorem 3: with k = 2q the 2q-th element is never set, and
// MT(2q-1) accepts exactly the same two-step logs as MT(2q) and beyond.
func TestTheorem3VectorSizeSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const q = 2 // two-step model
	for trial := 0; trial < 500; trial++ {
		l := randomTwoStepLog(rng, 3, 3, 1)
		s := NewScheduler(Options{K: 2 * q})
		okSat, _ := s.AcceptLog(l)
		// Lemma 4: the 2q-th element stays undefined for every transaction.
		for txn, v := range s.Snapshot() {
			if v.Elem(2 * q).Defined {
				t.Fatalf("log %v: TS(%d,%d) was set", l, txn, 2*q)
			}
		}
		ok3 := Accepts(2*q-1, l)
		ok5 := Accepts(2*q+1, l)
		if ok3 != okSat || ok5 != okSat {
			t.Fatalf("log %v: MT(3)=%v MT(4)=%v MT(5)=%v", l, ok3, okSat, ok5)
		}
	}
}

// Degree of concurrency grows in the examples: MT(2) accepts Example 1's
// log while MT(1) rejects it; and there are logs MT(1) accepts that MT(3)
// rejects (the classes are incomparable, Section III-C).
func TestConcurrencyClassesIncomparable(t *testing.T) {
	ex1 := oplog.MustParse("W1[x] W1[y] R3[x] R2[y] W3[y]")
	if Accepts(1, ex1) {
		t.Error("MT(1) unexpectedly accepts Example 1")
	}
	if !Accepts(2, ex1) {
		t.Error("MT(2) rejects Example 1")
	}
	// Search for a witness accepted by MT(1) but rejected by MT(3).
	rng := rand.New(rand.NewSource(3))
	found := false
	for trial := 0; trial < 20000 && !found; trial++ {
		l := randomTwoStepLog(rng, 3, 2, 2)
		if Accepts(1, l) && !Accepts(3, l) {
			found = true
		}
	}
	if !found {
		t.Error("no witness log in TO(1) \\ TO(3) found")
	}
}

// Property: acceptance is deterministic — the same log always produces the
// same decisions and final vectors.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := randomLog(rng, 3, 3, 2)
		s1 := NewScheduler(Options{K: 3})
		s2 := NewScheduler(Options{K: 3})
		ok1, at1 := s1.AcceptLog(l)
		ok2, at2 := s2.AcceptLog(l)
		if ok1 != ok2 || at1 != at2 {
			return false
		}
		a, b := s1.Snapshot(), s2.Snapshot()
		if len(a) != len(b) {
			return false
		}
		for txn, v := range a {
			if b[txn] == nil || v.String() != b[txn].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: once TS(i) < TS(j) is established it never flips, over the
// whole run of any log (Theorem 2's monotonicity argument).
func TestQuickEstablishedRelationsAreStable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := randomLog(rng, 4, 3, 3)
		s := NewScheduler(Options{K: 4})
		type rel struct{ a, b int }
		established := map[rel]bool{}
		txns := l.Transactions()
		for _, op := range l.Ops {
			if s.Step(op).Verdict == Reject {
				break
			}
			for _, a := range txns {
				for _, b := range txns {
					if a == b {
						continue
					}
					if established[rel{a, b}] && !s.less(a, b) {
						return false
					}
					if s.less(a, b) {
						established[rel{a, b}] = true
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Monotonic-encoding ablation: Lamport-style element values eliminate the
// serial-corner rejections but break Example 1 (T2 and T3 no longer share
// an element, so the late dependency aborts).
func TestMonotonicEncodingAblation(t *testing.T) {
	// (a) Example 1 is rejected under monotonic encoding.
	mono := NewScheduler(Options{K: 2, MonotonicEncoding: true})
	ok, _ := mono.AcceptLog(oplog.MustParse("W1[x] W1[y] R3[x] R2[y] W3[y]"))
	if ok {
		t.Error("monotonic MT(2) unexpectedly accepts Example 1")
	}
	// (b) Serial multi-step executions are never rejected.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		s := NewScheduler(Options{K: 3, MonotonicEncoding: true})
		nTxns := 2 + rng.Intn(4)
		for txn := 1; txn <= nTxns; txn++ {
			q := 1 + rng.Intn(4)
			for o := 0; o < q; o++ {
				op := oplog.NewOp(txn, oplog.Kind(rng.Intn(2)), string(rune('a'+rng.Intn(3))))
				if d := s.Step(op); d.Verdict == Reject {
					t.Fatalf("serial execution rejected %v under monotonic encoding", op)
				}
			}
		}
	}
	// (c) The faithful (+1) encoding rejects some serial executions — the
	// corner the ablation removes. Witness found by search.
	found := false
	for trial := 0; trial < 5000 && !found; trial++ {
		seed := rand.New(rand.NewSource(int64(trial)))
		s := NewScheduler(Options{K: 3})
		rejected := false
	txns:
		for txn := 1; txn <= 4; txn++ {
			q := 1 + seed.Intn(4)
			for o := 0; o < q; o++ {
				op := oplog.NewOp(txn, oplog.Kind(seed.Intn(2)), string(rune('a'+seed.Intn(3))))
				if d := s.Step(op); d.Verdict == Reject {
					rejected = true
					break txns
				}
			}
		}
		if rejected {
			found = true
		}
	}
	if !found {
		t.Error("no serial rejection witness found for the faithful encoding")
	}
}

// An Abort against a blocker whose vector was already reclaimed must not
// bring the blocker back: it is looked up without being created, and the
// aborted transaction is reclaimed like any finished one.
func TestAbortAgainstReclaimedBlocker(t *testing.T) {
	bothEngines(t, Options{K: 1, StarvationAvoidance: true}, func(t *testing.T, s mtEngine, _ *[]Event) {
		for _, op := range oplog.MustParse("W2[x] W3[y] R2[y]").Ops {
			step(t, s, op, Accept)
		}
		if d := step(t, s, oplog.W(3, "x"), Reject); d.Blocker != 2 {
			t.Fatalf("blocker %d, want 2", d.Blocker)
		}
		s.Commit(2)
		for _, op := range oplog.MustParse("W4[x] R4[y]").Ops {
			step(t, s, op, Accept)
		}
		s.Commit(4)
		for _, op := range oplog.MustParse("W5[x] R5[y] W5[y]").Ops {
			step(t, s, op, Accept)
		}
		s.Commit(5)
		snap := s.(interface{ Snapshot() map[int]*Vector }).Snapshot
		if got := liveIDs(snap()); !reflect.DeepEqual(got, []int{0, 3, 5}) {
			t.Fatalf("live ids before the abort %v, want [0 3 5]", got)
		}
		s.Abort(3, 2)
		if got := liveIDs(snap()); !reflect.DeepEqual(got, []int{0, 5}) {
			t.Fatalf("live ids after Abort(3, 2) %v, want [0 5]", got)
		}
	})
}

func liveIDs(snap map[int]*Vector) []int {
	ids := make([]int, 0, len(snap))
	for id := range snap {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
