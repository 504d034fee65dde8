package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oplog"
)

// TestEveryDisciplineExportsWatermarks is the regression guard for the
// engine's durability contract: every engine instantiation (the coarse
// Scheduler and the fine-grained Striped) must export monotone
// counter-consumption watermarks and honour raise-only seeding, so a
// new discipline (or a new adapter built on one) cannot ship without
// the WAL hooks the durable runtime relies on.
func TestEveryDisciplineExportsWatermarks(t *testing.T) {
	type watermarked interface {
		Step(op oplog.Op) core.Decision
		Watermarks() (lo, hi int64)
		RaiseWatermarks(lo, hi int64)
	}
	for name, build := range map[string]func(Options) watermarked{
		"coarse":  func(o Options) watermarked { return NewScheduler(o) },
		"striped": func(o Options) watermarked { return NewStriped(o) },
	} {
		t.Run(name, func(t *testing.T) {
			e := build(Options{K: 1})
			if lo, hi := e.Watermarks(); lo != 0 || hi != 1 {
				t.Fatalf("fresh watermarks = (%d,%d), want (0,1)", lo, hi)
			}
			// Burn counters: K=1 writes on one item allocate distinct
			// upper values for each new transaction.
			for i := 1; i <= 4; i++ {
				if v := e.Step(oplog.W(i, "x")); v.Verdict != core.Accept {
					t.Fatalf("W(%d,x) verdict %v", i, v.Verdict)
				}
			}
			lo, hi := e.Watermarks()
			if hi < 4 {
				t.Fatalf("upper watermark %d did not advance past consumption", hi)
			}
			// Raise-only: seeding above lifts, seeding below is a no-op.
			e.RaiseWatermarks(lo+10, hi+10)
			if l2, h2 := e.Watermarks(); l2 != lo+10 || h2 != hi+10 {
				t.Fatalf("raise to (%d,%d) gave (%d,%d)", lo+10, hi+10, l2, h2)
			}
			e.RaiseWatermarks(0, 0)
			if l3, h3 := e.Watermarks(); l3 != lo+10 || h3 != hi+10 {
				t.Fatalf("raise-only violated: (%d,%d) after seeding (0,0)", l3, h3)
			}
		})
	}
}
