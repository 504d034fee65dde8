package sim

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dmt"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// crashItems is the working set of the crash-point workload.
var crashItems = []string{"a", "b", "c", "d"}

// crashBase builds the pre-crash workload: MT(1) with deferred writes,
// a few read-modify-write transactions over a small hot set (enough
// contention to exercise retries, small enough that the full crash
// matrix stays fast). K = 1 makes EVERY element assignment a
// counter-column assignment, so the counter consumption the watermarks
// protect is maximal and the re-issue check has teeth.
func crashBase() Config {
	specs := make([]txn.Spec, 12)
	for i := range specs {
		x := crashItems[i%len(crashItems)]
		y := crashItems[(i+1)%len(crashItems)]
		specs[i] = txn.Spec{
			ID:  i + 1,
			Ops: []txn.Op{txn.R(x), txn.R(y), txn.W(x), txn.W(y)},
			Value: func(item string, reads map[string]int64) int64 {
				return reads[item] + 1
			},
		}
	}
	initial := make(map[string]int64, len(crashItems))
	for _, x := range crashItems {
		initial[x] = 100
	}
	return Config{
		NewScheduler: func(s *storage.Store) sched.Scheduler {
			return sched.NewMT(s, sched.MTOptions{
				Core:        engine.Options{K: 1, StarvationAvoidance: true},
				DeferWrites: true,
			})
		},
		Specs:       specs,
		Workers:     3,
		MaxAttempts: 16,
		Backoff:     10 * time.Microsecond,
		Initial:     initial,
	}
}

// restartPhase returns the post-recovery workload and traced-scheduler
// constructor for the counter re-issue check.
func restartPhase() ([]txn.Spec, func(*storage.Store, func(core.Event)) sched.Scheduler) {
	specs := make([]txn.Spec, 6)
	for i := range specs {
		x := crashItems[i%len(crashItems)]
		specs[i] = txn.Spec{ID: 1000 + i, Ops: []txn.Op{txn.R(x), txn.W(x)}}
	}
	build := func(s *storage.Store, trace func(core.Event)) sched.Scheduler {
		return sched.NewMT(s, sched.MTOptions{
			Core:        engine.Options{K: 1, StarvationAvoidance: true, Trace: trace},
			DeferWrites: true,
		})
	}
	return specs, build
}

func crashPointConfig(crashAt, seed int64) CrashPointConfig {
	specs, build := restartPhase()
	return CrashPointConfig{
		Config:             crashBase(),
		Seed:               seed,
		CrashAt:            crashAt,
		Sync:               wal.SyncGroup,
		BatchDelay:         50 * time.Microsecond,
		CheckpointEvery:    5,
		RestartSpecs:       specs,
		NewTracedScheduler: build,
	}
}

// TestCrashPointMatrix injects a crash at EVERY filesystem sync
// boundary a clean run performs and verifies, for each point: recovery
// succeeds (torn tails truncated), the recovered state equals the
// shadow copy, no commit acked durable is lost, watermarks dominate,
// and the restarted scheduler re-issues no k-th-column counter value.
func TestCrashPointMatrix(t *testing.T) {
	clean := RunCrashPoint(crashPointConfig(0, 1))
	if err := clean.Err(); err != nil {
		t.Fatalf("clean run: %v\n%s", err, clean)
	}
	if clean.Crashed {
		t.Fatal("clean run crashed")
	}
	if clean.AckedDurable == 0 || clean.RestartAssigns == 0 {
		t.Fatalf("clean run exercised nothing: %s", clean)
	}
	n := clean.CleanOps
	if n < 10 {
		t.Fatalf("suspiciously few I/O ops in clean run: %d", n)
	}
	if testing.Short() && n > 40 {
		n = 40
	}
	crashes := 0
	for crashAt := int64(1); crashAt <= n; crashAt++ {
		rep := RunCrashPoint(crashPointConfig(crashAt, 1+crashAt))
		if err := rep.Err(); err != nil {
			t.Errorf("crashAt=%d: %v\n%s", crashAt, err, rep)
		}
		if rep.Crashed {
			crashes++
		}
	}
	if crashes == 0 {
		t.Fatal("no crash point actually fired")
	}
	t.Logf("matrix: %d crash points, %d fired, clean ops=%d", n, crashes, clean.CleanOps)
}

// TestCrashPointDMT runs a coarse crash sweep under the distributed
// scheduler: replay equality, acked-durable survival and watermark
// dominance must hold there too (the counter-trace restart phase is
// MT-specific and skipped).
func TestCrashPointDMT(t *testing.T) {
	base := crashBase()
	base.NewScheduler = func(s *storage.Store) sched.Scheduler {
		return sched.NewDMT(s, dmt.Options{K: 4, Sites: 3})
	}
	cfg := CrashPointConfig{
		Config:          base,
		Seed:            7,
		Sync:            wal.SyncGroup,
		BatchDelay:      50 * time.Microsecond,
		CheckpointEvery: 4,
	}
	clean := RunCrashPoint(cfg)
	if err := clean.Err(); err != nil {
		t.Fatalf("clean run: %v\n%s", err, clean)
	}
	for crashAt := int64(1); crashAt <= clean.CleanOps; crashAt += 3 {
		c := cfg
		c.CrashAt, c.Seed = crashAt, 7+crashAt
		if rep := RunCrashPoint(c); rep.Err() != nil {
			t.Errorf("crashAt=%d: %v\n%s", crashAt, rep.Err(), rep)
		}
	}
}

// TestDurableRunOSFS exercises the real-filesystem path end to end: a
// durable run on disk, then recovery must reproduce the final store.
func TestDurableRunOSFS(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := crashBase()
	cfg.WAL = &wal.Options{Dir: dir, Sync: wal.SyncGroup, BatchDelay: 100 * time.Microsecond}
	rep := Run(cfg)
	if rep.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if rep.Durable != rep.Committed {
		t.Fatalf("durable=%d != committed=%d on a healthy disk", rep.Durable, rep.Committed)
	}
	rec, err := wal.Recover(nil, dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !statesEqual(rec.Store, rep.Store.State()) {
		t.Fatalf("recovered state != final store state")
	}

	// A second run over the same directory continues from the recovered
	// state. Initial must NOT re-seed: it would overwrite the first
	// run's committed values with the seed constants.
	cfg2 := crashBase()
	cfg2.WAL = &wal.Options{Dir: dir, Sync: wal.SyncGroup, BatchDelay: 100 * time.Microsecond}
	rep2 := Run(cfg2)
	if rep2.Recovered == nil || rep2.Recovered.Store.Version == 0 {
		t.Fatal("second run did not recover the first run's state")
	}
	if !statesEqual(rep2.Recovered.Store, rep.Store.State()) {
		t.Fatal("second run recovered a different state than the first run committed")
	}
	if rep2.Durable != rep2.Committed {
		t.Fatalf("second run durable=%d != committed=%d", rep2.Durable, rep2.Committed)
	}
	// Every committed txn adds exactly +1 to two items; had Initial
	// re-seeded (resetting every item to 100), the final sum would fall
	// short of recovered-sum + 2*committed.
	var recSum int64
	for _, x := range crashItems {
		recSum += rep2.Recovered.Store.Data[x]
	}
	if got, want := rep2.Store.Sum(crashItems), recSum+2*rep2.Committed; got != want {
		t.Fatalf("final sum %d != recovered sum %d + 2*committed %d (Initial re-seeded a durable restart?)",
			got, recSum, rep2.Committed)
	}
}

// stripedCrashConfig is the striped-path racing-commit crash matrix:
// MT(1)/striped with more workers and more items than crashBase, so
// several commits are typically in flight concurrently — their commit
// records must be sequenced at the group-commit boundary (the store's
// commit mutex inside ApplyTxn), never at latch-acquire time, or
// replay equality (invariant 2) and watermark dominance (invariant 4)
// break. The restart phase reuses the striped scheduler, exercising
// the crash harness's K-discovery fallback and the atomic
// SeedWALCounters clamp.
func stripedCrashConfig(crashAt, seed int64) CrashPointConfig {
	base := crashBase()
	base.Workers = 6
	base.NewScheduler = func(s *storage.Store) sched.Scheduler {
		return sched.NewMTStriped(s, sched.MTOptions{
			Core:        engine.Options{K: 1, StarvationAvoidance: true},
			DeferWrites: true,
		})
	}
	specs := make([]txn.Spec, 6)
	for i := range specs {
		x := crashItems[i%len(crashItems)]
		specs[i] = txn.Spec{ID: 1000 + i, Ops: []txn.Op{txn.R(x), txn.W(x)}}
	}
	build := func(s *storage.Store, trace func(core.Event)) sched.Scheduler {
		return sched.NewMTStriped(s, sched.MTOptions{
			Core:        engine.Options{K: 1, StarvationAvoidance: true, Trace: trace},
			DeferWrites: true,
		})
	}
	return CrashPointConfig{
		Config:             base,
		Seed:               seed,
		CrashAt:            crashAt,
		Sync:               wal.SyncGroup,
		BatchDelay:         50 * time.Microsecond,
		CheckpointEvery:    5,
		RestartSpecs:       specs,
		NewTracedScheduler: build,
	}
}

// TestCrashPointStripedRacingCommits sweeps crash points across a run
// whose commits race on the striped scheduler and verifies all five
// durability invariants at every point.
func TestCrashPointStripedRacingCommits(t *testing.T) {
	clean := RunCrashPoint(stripedCrashConfig(0, 21))
	if err := clean.Err(); err != nil {
		t.Fatalf("clean run: %v\n%s", err, clean)
	}
	if clean.AckedDurable == 0 || clean.RestartAssigns == 0 {
		t.Fatalf("clean run exercised nothing: %s", clean)
	}
	n := clean.CleanOps
	if testing.Short() && n > 40 {
		n = 40
	}
	crashes := 0
	for crashAt := int64(1); crashAt <= n; crashAt++ {
		rep := RunCrashPoint(stripedCrashConfig(crashAt, 21+crashAt))
		if err := rep.Err(); err != nil {
			t.Errorf("crashAt=%d: %v\n%s", crashAt, err, rep)
		}
		if rep.Crashed {
			crashes++
		}
	}
	if crashes == 0 {
		t.Fatal("no crash point actually fired")
	}
	t.Logf("striped matrix: %d crash points, %d fired", n, crashes)
}
