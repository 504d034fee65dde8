package sched

// DurableCounters is implemented by schedulers whose commits consume
// k-th-column counter values (MT's lcount/ucount, DMT's per-site
// counters). The write-ahead log samples WALCounters at every commit
// and persists the pair; recovery calls SeedWALCounters with the last
// durable pair so the restarted scheduler never re-issues a counter
// value consumed by a durable commit — the durability half of the
// paper's "synchronize the counters periodically" remark.
//
// Both values are consumption watermarks and MUST be monotone
// non-decreasing over a scheduler's lifetime (schedulers whose raw
// counters run downward, like MT's lcount, negate them). Every engine
// instantiation exports the pair via Watermarks/RaiseWatermarks, so
// each lifecycle implements this once, as a pure delegation to its
// protocol — there is no per-family watermark arithmetic left to get
// wrong.
type DurableCounters interface {
	// WALCounters returns the current (lower, upper) consumption
	// watermarks. It is called from the store's journal hook — i.e.
	// under the store mutex inside the scheduler's own Commit — so it
	// must not take a lock the committing goroutine may hold there (the
	// reference lifecycle's global mutex).
	WALCounters() (lo, hi int64)
	// SeedWALCounters restarts the scheduler at or above the recovered
	// watermarks. Call before traffic flows; raising, never lowering.
	SeedWALCounters(lo, hi int64)
}
