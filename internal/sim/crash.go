package sim

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// crashDir is the WAL directory inside the harness's in-memory FS.
const crashDir = "walcrash"

// shadowEvent is one committed batch as the shadow copy saw it: deep
// copies of the maps (the journal contract lends them only for the
// call) plus the counter watermarks the log writer recorded in the
// batch's redo record.
type shadowEvent struct {
	Txn     int
	Version int64
	Writes  map[string]int64
	Vers    map[string]int64
	Lo, Hi  int64
}

// CrashPointConfig drives one crash-point experiment: run the embedded
// workload with the WAL on an in-memory filesystem that dies at the
// CrashAt-th I/O operation, then recover and verify.
type CrashPointConfig struct {
	// Config is the workload; its WAL, Observe and KeepResults fields
	// are owned by the harness and overwritten.
	Config
	// Seed drives the deterministic torn-tail lengths (and is mixed per
	// file), so a whole crash matrix is reproducible from one integer.
	Seed int64
	// CrashAt schedules the crash on the n-th filesystem operation
	// (0 = never crash; used to measure CleanOps, the sweep bound).
	CrashAt int64
	// Sync, BatchDelay, BatchBytes, CheckpointEvery configure the log
	// writer (see wal.Options).
	Sync            wal.SyncPolicy
	BatchDelay      time.Duration
	BatchBytes      int
	CheckpointEvery int
	// RestartSpecs, when non-empty together with NewTracedScheduler,
	// runs a post-recovery phase that traces every k-th-column counter
	// assignment and reports any value the pre-crash run could already
	// have consumed durably — the counter re-issue check.
	RestartSpecs []txn.Spec
	// NewTracedScheduler builds the post-recovery scheduler with a core
	// trace attached (MT-family schedulers route engine.Options.Trace).
	NewTracedScheduler func(*storage.Store, func(core.Event)) sched.Scheduler
}

// CrashPointReport is the outcome of one crash-point run, with every
// verified invariant. A report with empty Violations passed.
type CrashPointReport struct {
	// Crashed reports whether the scheduled crash fired (a CrashAt past
	// the run's total I/O count never fires).
	Crashed bool
	// CleanOps is the filesystem op count of the run — with CrashAt=0
	// this is the sweep bound for the full matrix.
	CleanOps int64
	// Committed and AckedDurable count scheduler commits and commits
	// acknowledged as durable (fsynced) before the crash.
	Committed    int64
	AckedDurable int64
	// RecoveredVersion/RecoveredRecords/TornBytes describe recovery.
	RecoveredVersion int64
	RecoveredRecords int
	TornBytes        int64
	// RestartAssigns counts k-th-column values assigned post-recovery
	// (0 when the restart phase is not configured).
	RestartAssigns int
	// Violations lists every broken invariant (empty = pass).
	Violations []string
}

func (r *CrashPointReport) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Err returns nil when every invariant held.
func (r *CrashPointReport) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("crash-point invariants violated: %v", r.Violations)
}

// String renders a one-line summary.
func (r *CrashPointReport) String() string {
	status := "PASS"
	if len(r.Violations) > 0 {
		status = fmt.Sprintf("FAIL %v", r.Violations)
	}
	return fmt.Sprintf("crashed=%v committed=%d acked-durable=%d recovered-version=%d replayed=%d torn-bytes=%d restart-assigns=%d %s",
		r.Crashed, r.Committed, r.AckedDurable, r.RecoveredVersion,
		r.RecoveredRecords, r.TornBytes, r.RestartAssigns, status)
}

// RunCrashPoint runs the workload against a WAL on a crash-scheduled
// in-memory filesystem, restarts the "machine", recovers, and verifies
// the durability invariants:
//
//  1. recovery succeeds — a torn tail is truncated, never fatal;
//  2. the recovered state equals the shadow copy replayed to the
//     recovered version (exact data, item versions and version);
//  3. every commit acknowledged as durable survived (its batch version
//     is within the recovered prefix) — no lost acked commit;
//  4. the recovered counter watermarks dominate those sampled at every
//     surviving commit;
//  5. (with a restart phase) no k-th-column counter value that a
//     durable pre-crash commit could have consumed is re-issued.
func RunCrashPoint(cfg CrashPointConfig) *CrashPointReport {
	fsys := wal.NewMemFS(cfg.Seed, cfg.CrashAt)
	var shadow []shadowEvent
	var w *wal.Writer
	cfg.Config.OnWALOpen = func(wr *wal.Writer, _ *wal.RecoveredState) { w = wr }
	cfg.Config.WAL = &wal.Options{
		Dir:             crashDir,
		FS:              fsys,
		Sync:            cfg.Sync,
		BatchDelay:      cfg.BatchDelay,
		BatchBytes:      cfg.BatchBytes,
		CheckpointEvery: cfg.CheckpointEvery,
	}
	cfg.Config.Observe = func(ev storage.ApplyEvent) {
		e := shadowEvent{Txn: ev.Txn, Version: ev.Version,
			Writes: make(map[string]int64, len(ev.Writes)),
			Vers:   make(map[string]int64, len(ev.Vers))}
		for x, v := range ev.Writes {
			e.Writes[x] = v
		}
		for x, v := range ev.Vers {
			e.Vers[x] = v
		}
		if w != nil {
			// Read the watermarks the log writer just recorded for this
			// batch (its journal hook ran first, under the same
			// store-mutex hold) instead of re-sampling the scheduler:
			// DMT's cluster counters advance under per-site locks, so a
			// re-sample could exceed what the log persisted and trip
			// invariant 4 spuriously.
			e.Lo, e.Hi = w.LastWatermarks()
		}
		// The journal runs under the store mutex: appends are serialized
		// and arrive in commit order.
		shadow = append(shadow, e)
	}
	cfg.Config.KeepResults = true

	// A crash can fire during wal.Open itself (the very first I/O ops
	// belong to recovery and the append-open): that models a process
	// dying at startup, so the run simply never happened.
	runRep := runTolerant(cfg.Config)
	if runRep == nil {
		runRep = &Report{}
	}
	rep := &CrashPointReport{
		Crashed:   fsys.Crashed(),
		CleanOps:  fsys.Ops(),
		Committed: runRep.Committed,
	}
	txnVersion := make(map[int]int64, len(shadow))
	for _, ev := range shadow {
		if ev.Txn != 0 {
			txnVersion[ev.Txn] = ev.Version
		}
	}

	// The machine restarts: volatile bytes are gone, recovery begins.
	fsys.Restart()
	rec, err := wal.Recover(fsys, crashDir)
	if err != nil {
		rep.violate("recovery failed: %v", err)
		return rep
	}
	rep.RecoveredVersion = rec.Store.Version
	rep.RecoveredRecords = rec.Records
	rep.TornBytes = rec.TornBytes

	// (2) Recovered state == shadow prefix replayed to the same version.
	replay := storage.State{
		Data:     make(map[string]int64),
		ItemVers: make(map[string]int64),
	}
	if rec.Store.Version > int64(len(shadow)) {
		rep.violate("recovered version %d beyond the %d applied batches", rec.Store.Version, len(shadow))
		return rep
	}
	for _, ev := range shadow[:rec.Store.Version] {
		if ev.Version != replay.Version+1 {
			rep.violate("shadow versions not contiguous at %d", ev.Version)
			return rep
		}
		for x, v := range ev.Writes {
			replay.Data[x] = v
			replay.ItemVers[x] = ev.Vers[x]
		}
		replay.Version = ev.Version
	}
	if !statesEqual(replay, rec.Store) {
		rep.violate("recovered state != shadow replay at version %d", rec.Store.Version)
	}

	// (3) No commit acked durable may be missing from the recovery.
	for _, res := range runRep.Results {
		if !res.Committed || !res.Durable {
			continue
		}
		rep.AckedDurable++
		ver, ok := txnVersion[res.ID]
		if !ok {
			continue // read-only commit: nothing to lose
		}
		if ver > rec.Store.Version {
			rep.violate("txn %d acked durable at version %d but recovery stops at %d",
				res.ID, ver, rec.Store.Version)
		}
	}

	// (4) Recovered watermarks dominate every surviving commit's sample.
	for _, ev := range shadow[:rec.Store.Version] {
		if ev.Lo > rec.Lo || ev.Hi > rec.Hi {
			rep.violate("recovered watermarks (%d,%d) below surviving commit %d's (%d,%d)",
				rec.Lo, rec.Hi, ev.Version, ev.Lo, ev.Hi)
			break
		}
	}

	// (5) Restart phase: no re-issued k-th-column counter value. Every
	// pre-crash durable commit consumed upper values < rec.Hi and lower
	// values > -rec.Lo (watermarks are consumption counts), so any
	// post-restart assignment inside those ranges is a re-issue.
	if len(cfg.RestartSpecs) > 0 && cfg.NewTracedScheduler != nil {
		store2 := storage.Restore(rec.Store)
		var k int
		var assigns []int64
		var traced sched.Scheduler
		trace := func(ev core.Event) {
			if ev.Kind == core.EvAssign && ev.Pos == k && ev.Txn != 0 {
				assigns = append(assigns, ev.Val)
			}
		}
		traced = cfg.NewTracedScheduler(store2, trace)
		if d, ok := traced.(sched.DurableCounters); ok {
			d.SeedWALCounters(rec.Lo, rec.Hi)
		} else {
			rep.violate("restart scheduler lacks DurableCounters")
		}
		if mt, ok := traced.(interface{ Core() *engine.Scheduler }); ok && mt.Core() != nil {
			k = mt.Core().K()
		} else if kk, ok := traced.(interface{ K() int }); ok {
			// Striped schedulers have no coarse core; they expose K directly.
			k = kk.K()
		} else {
			rep.violate("restart scheduler does not expose its core (need K)")
		}
		rt2 := &txn.Runtime{Sched: traced, MaxAttempts: 8}
		for _, sp := range cfg.RestartSpecs {
			rt2.Exec(sp)
		}
		rep.RestartAssigns = len(assigns)
		for _, v := range assigns {
			if v > 0 && v < rec.Hi {
				rep.violate("upper counter value %d re-issued (durable watermark %d)", v, rec.Hi)
			}
			if v <= 0 && v > -rec.Lo {
				rep.violate("lower counter value %d re-issued (durable watermark %d)", v, rec.Lo)
			}
		}
	}
	return rep
}

// runTolerant runs the simulation, absorbing the startup panic a
// crash-during-open causes (nil report: the process died before any
// transaction ran). Any other panic propagates.
func runTolerant(cfg Config) (rep *Report) {
	defer func() {
		if r := recover(); r != nil {
			if s, ok := r.(string); ok && strings.Contains(s, wal.ErrCrash.Error()) {
				rep = nil
				return
			}
			panic(r)
		}
	}()
	return Run(cfg)
}

// statesEqual compares two storage states field by field (ItemVers and
// Data may be nil vs empty).
func statesEqual(a, b storage.State) bool {
	if a.Version != b.Version || len(a.Data) != len(b.Data) || len(a.ItemVers) != len(b.ItemVers) {
		return false
	}
	for x, v := range a.Data {
		if b.Data[x] != v {
			return false
		}
	}
	for x, v := range a.ItemVers {
		if b.ItemVers[x] != v {
			return false
		}
	}
	return true
}
