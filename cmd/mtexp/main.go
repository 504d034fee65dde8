// Command mtexp reproduces the paper's worked examples, tables and
// figures and prints them in the paper's own notation. Run with -exp all
// (default) or one of: e1, table1, table2, table3, table4, fig4, fig5,
// fig6, starvation, thomas, theorem3, theorem5, interval.
//
// Usage:
//
//	mtexp [-exp name] [-n 3] [-items 3] [-witnesses]
//
// -n, -items and -witnesses size the fig4 census: every two-step log of
// n transactions over an alphabet of that many items, classified against
// 2PL / TO(1) / TO(2) / TO(3) / SSR / DSR / SR.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/classify"
	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/enumerate"
	"repro/internal/interval"
	"repro/internal/nested"
	"repro/internal/oplog"
	"repro/internal/storage"
	"repro/internal/vecproc"
)

type experiment struct {
	name string
	desc string
	run  func()
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all', 'list')")
	n := flag.Int("n", 3, "fig4: number of transactions")
	items := flag.Int("items", 3, "fig4: alphabet size (1-4)")
	witnesses := flag.Bool("witnesses", false, "fig4: print a witness log per membership region")
	flag.Parse()

	exps := []experiment{
		{"e1", "Example 1: MT(2) avoids the TO(1) abort", runE1},
		{"table1", "Table I: vector evolution for Example 2", runTable1},
		{"table2", "Table II: hot-item chain of Example 3", runTable2},
		{"table3", "Table III: MT(k1,k2) vectors for Example 4", runTable3},
		{"table4", "Table IV: read/write-set groups of Example 6", runTable4},
		{"fig4", "Fig. 4: hierarchy census over enumerated logs", func() { runFig4(*n, *items, *witnesses) }},
		{"fig5", "Fig. 5: the starvation case and its fix", runFig5},
		{"fig6", "Fig. 6: parallel vector comparison", runFig6},
		{"thomas", "Thomas write rule integration", runThomas},
		{"theorem3", "Theorem 3: vector-size saturation at 2q-1", runTheorem3},
		{"theorem5", "Theorem 5: shared prefixes in MT(k+)", runTheorem5},
		{"interval", "Section VI-A: vectors vs timestamp intervals", runInterval},
	}

	if *exp == "list" {
		for _, e := range exps {
			fmt.Printf("  %-10s %s\n", e.name, e.desc)
		}
		return
	}
	ran := false
	for _, e := range exps {
		if *exp == "all" || *exp == e.name {
			fmt.Printf("==== %s — %s ====\n", e.name, e.desc)
			e.run()
			fmt.Println()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try -exp list)\n", *exp)
		os.Exit(2)
	}
}

// printVectors prints the timestamp table rows in ascending txn order.
func printVectors(s *engine.Scheduler, txns []int) {
	for _, t := range txns {
		fmt.Printf("  TS(%d) = %s\n", t, s.Vector(t))
	}
}

func runE1() {
	l := oplog.MustParse("W1[x] W1[y] R3[x] R2[y] W3[y]")
	fmt.Printf("log L = %s\n", l)
	fmt.Printf("TO(1) per Definition 4: %v (premature order T3 before T2)\n", classify.TO1(l))
	fmt.Printf("MT(1) accepts: %v\n", engine.Accepts(1, l))
	fmt.Printf("MT(2) accepts: %v\n", engine.Accepts(2, l))

	s := engine.NewScheduler(engine.Options{K: 2})
	prefix := oplog.MustParse("W1[x] W1[y] R3[x] R2[y]")
	s.AcceptLog(prefix)
	fmt.Println("after the prefix (T2 and T3 share element 1):")
	printVectors(s, []int{1, 2, 3})
	s.Step(oplog.W(3, "y"))
	fmt.Println("after W3[y] (T2 -> T3 encoded in dimension 2):")
	printVectors(s, []int{1, 2, 3})
	fmt.Printf("serialization order: %v\n", s.SerialOrder([]int{1, 2, 3}))
}

func runTable1() {
	s := engine.NewScheduler(engine.Options{K: 2})
	steps := []struct {
		op   oplog.Op
		edge string
	}{
		{oplog.R(1, "x"), "a: T0->T1"},
		{oplog.R(2, "y"), "b: T0->T2"},
		{oplog.R(3, "z"), "c: T0->T3"},
		{oplog.W(1, "y"), "d: T2->T1"},
		{oplog.W(1, "z"), "e: T3->T1"},
	}
	fmt.Printf("%-14s %-8s %-8s %-8s %-8s\n", "edge", "TS(0)", "TS(1)", "TS(2)", "TS(3)")
	row := func(label string) {
		fmt.Printf("%-14s %-8s %-8s %-8s %-8s\n", label,
			s.Vector(0), s.Vector(1), s.Vector(2), s.Vector(3))
	}
	row("initialization")
	for _, st := range steps {
		if d := s.Step(st.op); d.Verdict != core.Accept {
			fmt.Printf("unexpected reject at %v\n", st.op)
			return
		}
		row(st.edge)
	}
	row("resulting")
	fmt.Printf("serialization order: %v (log ≡ T3 T2 T1)\n", s.SerialOrder([]int{1, 2, 3}))
}

func runTable2() {
	s := engine.NewScheduler(engine.Options{K: 2})
	s.SeedVector(4, core.Int(1), core.Int(4))
	s.SetCounters(0, 5)
	fmt.Println("vectors just before the middle operations: TS(4) = <1,4>")
	for _, op := range oplog.MustParse("R1[x] W2[x] W3[x]").Ops {
		s.Step(op)
	}
	fmt.Printf("%-8s %-8s %-8s %-8s %-8s\n", "TS(0)", "TS(1)", "TS(2)", "TS(3)", "TS(4)")
	fmt.Printf("%-8s %-8s %-8s %-8s %-8s\n",
		s.Vector(0), s.Vector(1), s.Vector(2), s.Vector(3), s.Vector(4))
	fmt.Println("note: the hot item x chained TS(1) < TS(2) < TS(3) and ordered TS(4) too.")

	// The optimized (right-shifted) encoding of Section III-D-5.
	fmt.Println("optimized encoding (hot item, k=4): T1=<1,3,*,*> then encode T1->T2:")
	h2 := engine.NewScheduler(engine.Options{K: 4, HotItems: map[string]bool{"x": true}})
	h2.SeedVector(1, core.Int(1), core.Int(3), core.Undef, core.Undef)
	// Route the dependency through the hot item x: T1 writes, T2 reads.
	h2.Step(oplog.W(1, "x"))
	h2.Step(oplog.R(2, "x"))
	fmt.Printf("  TS(1) = %s, TS(2) = %s (dependency pushed right)\n", h2.Vector(1), h2.Vector(2))
}

func runTable3() {
	s := nested.New2Level(2, 2, map[int]int{1: 1, 2: 1, 3: 2})
	l := oplog.MustParse("R1[x] R2[y] W2[x] R3[x]")
	edges := []string{"a: G0->G1", "b: G0->G1 (already encoded)", "c: T1->T2", "d: G1->G2"}
	fmt.Printf("%-26s %-7s %-7s %-7s %-7s %-7s %-7s\n",
		"edge", "GS(0)", "GS(1)", "GS(2)", "TS(1)", "TS(2)", "TS(3)")
	row := func(label string) {
		fmt.Printf("%-26s %-7s %-7s %-7s %-7s %-7s %-7s\n", label,
			s.UnitVector(1, 0), s.UnitVector(1, 1), s.UnitVector(1, 2),
			s.TxnVector(1), s.TxnVector(2), s.TxnVector(3))
	}
	row("initialization")
	for i, op := range l.Ops {
		if d := s.Step(op); d.Verdict != core.Accept {
			fmt.Printf("unexpected reject at %v\n", op)
			return
		}
		row(edges[i])
	}
	row("resulting")
	fmt.Printf("serialization order: %v\n", s.SerialOrder([]int{1, 2, 3}))
	fmt.Println("a later dependency T3 -> T2 implies G2 -> G1 and is rejected:")
	s.Step(oplog.W(3, "w"))
	d := s.Step(oplog.R(2, "w"))
	fmt.Printf("  R2[w] after W3[w]: %s\n", d.Verdict)
}

func runTable4() {
	// Example 6's fixed signatures: G1 reads {x,z} writes {y,z};
	// G2 reads {y,w} writes {x,w}.
	l := oplog.MustParse("R1[x,z] W1[y,z] R3[x,z] W3[y,z] R2[y,w] W2[x,w]")
	groups := nested.SignatureGroups(l)
	fmt.Println("transactions partitioned by read/write-set signature:")
	txns := l.Transactions()
	for _, t := range txns {
		fmt.Printf("  T%d -> G%d\n", t, groups[t])
	}
	fmt.Printf("T1 and T3 share a group: %v; T2 is apart: %v\n",
		groups[1] == groups[3], groups[1] != groups[2])
	s := nested.NewScheduler(nested.Options{
		Ks:     []int{2, 2},
		UnitOf: func(txn, lvl int) int { return groups[txn] },
	})
	ok, at := s.AcceptLog(l)
	fmt.Printf("MT(2,2) over the signature groups accepts the log: %v (first reject index %d)\n", ok, at)
	fmt.Println("cross-group dependencies are one-way (G1 -> G2): antisymmetric by construction")
}

func runFig4(n, items int, witnesses bool) {
	alphabet := []string{"x", "y", "z", "w"}
	items = min(max(items, 1), len(alphabet))
	fmt.Printf("enumerating two-step logs: n=%d items=%d\n", n, items)
	c := enumerate.RunCensus(n, alphabet[:items])
	fmt.Print(c.String())
	if witnesses {
		var ms []enumerate.Membership
		for m := range c.Counts {
			ms = append(ms, m)
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i].Key() < ms[j].Key() })
		fmt.Println("witnesses:")
		for _, m := range ms {
			fmt.Printf("  %-40s %s\n", m.Key(), c.Examples[m])
		}
	}
	regions := []struct {
		name string
		pred func(enumerate.Membership) bool
	}{
		{"TO(3) \\ TO(1)", func(m enumerate.Membership) bool { return m.TO3 && !m.TO1 }},
		{"TO(1) \\ TO(3)", func(m enumerate.Membership) bool { return m.TO1 && !m.TO3 }},
		{"TO(3) ∩ SSR − TO(1) − 2PL (region 7)", func(m enumerate.Membership) bool {
			return m.TO3 && m.SSR && !m.TO1 && !m.TwoPL
		}},
		{"DSR ∩ SSR − TO(3) − TO(1) − 2PL (region 9)", func(m enumerate.Membership) bool {
			return m.DSR && m.SSR && !m.TO3 && !m.TO1 && !m.TwoPL
		}},
		{"2PL \\ TO(3)", func(m enumerate.Membership) bool { return m.TwoPL && !m.TO3 }},
		{"TO(3) \\ 2PL", func(m enumerate.Membership) bool { return m.TO3 && !m.TwoPL }},
	}
	fmt.Println("region witnesses:")
	for _, r := range regions {
		w := c.Witness(r.pred)
		if w == nil {
			fmt.Printf("  %-44s EMPTY\n", r.name)
			continue
		}
		fmt.Printf("  %-44s n=%-5d e.g. %s\n", r.name, c.ClassCount(r.pred), w)
	}

	// Headline class sizes (degree of concurrency, Section III-C).
	fmt.Println("class populations (degree of concurrency):")
	for _, cl := range []struct {
		name string
		pred func(enumerate.Membership) bool
	}{
		{"SR", func(m enumerate.Membership) bool { return m.SR }},
		{"DSR", func(m enumerate.Membership) bool { return m.DSR }},
		{"SSR", func(m enumerate.Membership) bool { return m.SSR }},
		{"2PL", func(m enumerate.Membership) bool { return m.TwoPL }},
		{"TO(1) def4", func(m enumerate.Membership) bool { return m.TO1 }},
		{"TO(2)", func(m enumerate.Membership) bool { return m.TO2 }},
		{"TO(3)", func(m enumerate.Membership) bool { return m.TO3 }},
		{"TO(3) ∪ TO(1)", func(m enumerate.Membership) bool { return m.TO3 || m.TO1 }},
	} {
		fmt.Printf("  %-14s %6d / %d\n", cl.name, c.ClassCount(cl.pred), c.Total)
	}
}

func runFig5() {
	fmt.Println("log L = W1[x] W2[x] R3[y] W3[x]")
	plain := engine.NewScheduler(engine.Options{K: 2})
	plain.AcceptLog(oplog.MustParse("W1[x] W2[x] R3[y]"))
	for attempt := 1; attempt <= 3; attempt++ {
		d := plain.Step(oplog.W(3, "x"))
		fmt.Printf("  attempt %d without fix: W3[x] %s (blocker T%d)\n", attempt, d.Verdict, d.Blocker)
		if d.Verdict != core.Reject {
			break
		}
		plain.Abort(3, d.Blocker)
		plain.Step(oplog.R(3, "y"))
	}
	// The paper's fix restarts T3. It needs that only once a later step
	// was ordered after T3 (here R4[y]); before that, T3 is raised in
	// place to the vector the restart would get.
	fixed := engine.NewScheduler(engine.Options{K: 2, StarvationAvoidance: true})
	fixed.AcceptLog(oplog.MustParse("W1[x] W2[x] R3[y] R4[y]"))
	d := fixed.Step(oplog.W(3, "x"))
	fmt.Printf("  with fix, after R4[y]: first W3[x] %s; flushing TS(3)\n", d.Verdict)
	fixed.Abort(3, d.Blocker)
	fmt.Printf("  TS(3) reseeded to %s\n", fixed.Vector(3))
	ok, _ := fixed.AcceptLog(oplog.MustParse("R3[y] W3[x]"))
	fmt.Printf("  restart commits: %v\n", ok)
	raised := engine.NewScheduler(engine.Options{K: 2, StarvationAvoidance: true})
	raised.AcceptLog(oplog.MustParse("W1[x] W2[x] R3[y]"))
	d = raised.Step(oplog.W(3, "x"))
	fmt.Printf("  with fix, nothing ordered after T3: W3[x] %s, TS(3) raised in place to %s\n",
		d.Verdict, raised.Vector(3))
}

func runFig6() {
	a := core.VectorOf(core.Int(1), core.Int(3), core.Int(2), core.Int(2))
	b := core.VectorOf(core.Int(1), core.Int(3), core.Int(5), core.Int(2))
	r := vecproc.Compare(a, b)
	fmt.Printf("input:  TS(1) = %s\n        TS(2) = %s\n", a, b)
	fmt.Printf("output: TS(1) %s TS(2), deciding position %d, %d parallel steps\n",
		r.Rel, r.Pos, r.ParallelSteps)
	fmt.Println("parallel steps by vector size (⌈log2 k⌉ + 4, Theorem 4):")
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		v := core.NewVector(k)
		fmt.Printf("  k=%-3d steps=%d\n", k, vecproc.Compare(v, v.Clone()).ParallelSteps)
	}
}

func runThomas() {
	l := oplog.MustParse("W2[y] R1[y] W1[x] W2[x]")
	fmt.Printf("log L = %s (W2[x] is obsolete: TS(2) < TS(1) = WT(x))\n", l)
	plain := engine.NewScheduler(engine.Options{K: 2})
	okPlain, atPlain := plain.AcceptLog(l)
	fmt.Printf("  without Thomas rule: accepted=%v (reject at op %d)\n", okPlain, atPlain)
	thomas := engine.NewScheduler(engine.Options{K: 2, ThomasWriteRule: true})
	var last core.Decision
	for _, op := range l.Ops {
		last = thomas.Step(op)
	}
	fmt.Printf("  with Thomas rule: final op verdict=%s (write ignored, no abort)\n", last.Verdict)
}

func runTheorem3() {
	fmt.Println("two-step model (q=2): acceptance saturates at k = 2q-1 = 3")
	logs := []string{
		"W1[x] W1[y] R3[x] R2[y] W3[y]",
		"R1[x] W1[x] R2[x] W2[x] R3[y] W3[y]",
		"R1[x] R2[x] W1[y] W2[z] R3[y] W3[x]",
	}
	fmt.Printf("%-44s %-6s %-6s %-6s %-6s %-6s\n", "log", "k=1", "k=2", "k=3", "k=4", "k=5")
	for _, s := range logs {
		l := oplog.MustParse(s)
		fmt.Printf("%-44s", s)
		for k := 1; k <= 5; k++ {
			fmt.Printf(" %-6v", engine.Accepts(k, l))
		}
		fmt.Println()
	}
	// The 2q-th column is never set (Lemma 4).
	sch := engine.NewScheduler(engine.Options{K: 4})
	sch.AcceptLog(oplog.MustParse("W1[x] W1[y] R3[x] R2[y] W3[y]"))
	maxDefined := 0
	for t, v := range sch.Snapshot() {
		_ = t
		for m := 1; m <= v.K(); m++ {
			if v.Elem(m).Defined && m > maxDefined {
				maxDefined = m
			}
		}
	}
	fmt.Printf("deepest element ever set with k=4 on Example 1: column %d (Lemma 4: < 2q)\n", maxDefined)
}

func runTheorem5() {
	s := composite.NewScheduler(composite.Options{K: 4})
	l := oplog.MustParse("W1[x] W1[y] R3[x] R2[y] W3[y]")
	s.AcceptLog(l)
	fmt.Printf("alive subprotocols after Example 1: %v\n", s.Alive())
	fmt.Println("shared prefix lengths (Theorem 5 floor: min(h1,h2)-1):")
	for _, pair := range [][2]int{{2, 3}, {2, 4}, {3, 4}} {
		for _, txn := range []int{1, 2, 3} {
			fmt.Printf("  T%d MT(%d)/MT(%d): %d\n", txn, pair[0], pair[1],
				s.SharedPrefixSize(txn, pair[0], pair[1]))
		}
	}
}

func runInterval() {
	fmt.Println("hot-item chain, interval scheme without compaction (Section VI-A):")
	st := storage.New()
	iv := interval.New(st, interval.Options{NoCompact: true})
	deep := 0
	for i := 1; i <= 200; i++ {
		iv.Begin(i)
		if _, err := iv.Read(i, "hot"); err != nil {
			break
		}
		if err := iv.Write(i, "hot", int64(i)); err != nil {
			break
		}
		if err := iv.Commit(i); err != nil {
			break
		}
		deep = i
	}
	fmt.Printf("  chain depth before exhaustion: %d (space fragments exponentially)\n", deep)
	fmt.Printf("  fragmentation aborts: %d\n", iv.Exhausted())

	fmt.Println("the same chain under MT(2): no fragmentation, any depth:")
	s := engine.NewScheduler(engine.Options{K: 2})
	okAll := true
	for i := 1; i <= 200; i++ {
		if d := s.Step(oplog.R(i, "hot")); d.Verdict != core.Accept {
			okAll = false
			break
		}
		if d := s.Step(oplog.W(i, "hot")); d.Verdict != core.Accept {
			okAll = false
			break
		}
	}
	fmt.Printf("  200-deep chain accepted: %v\n", okAll)
}
