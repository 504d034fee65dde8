package sched

import (
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
)

// serial makes an unsynchronised kernel safe for the adapter: a mutex
// around every call, nothing else. The protocol state of MT(k⁺) and
// MT(k1,…,kl) stays under this one mutex — an epoch restart swaps the
// whole composite scheduler and the nested tables are plain slices and
// maps, which no per-item scheme survives — but it covers the protocol
// step only: the adapter holds the item latches around it and does the
// store access outside it, so storage reads and commit publishes on
// disjoint items still overlap.
type serial struct {
	mu sync.Mutex
	k  kernel
}

// newSerialAdapter returns the adapter over the unsynchronised kernel
// k, with a latch table of its own. k must index items by the store's
// interned ids.
func newSerialAdapter(store *storage.Store, f family, k kernel) *adapter {
	return newAdapter(store, f, &serial{k: k}, core.NewLatchTable(engine.DefaultStripes))
}

// StepReadID implements kernel.
func (s *serial) StepReadID(txn int, id int32) (core.Verdict, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.k.StepReadID(txn, id)
}

// StepWriteID implements kernel.
func (s *serial) StepWriteID(txn int, id int32) (core.Verdict, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.k.StepWriteID(txn, id)
}

// Commit implements kernel.
func (s *serial) Commit(txn int) {
	s.mu.Lock()
	s.k.Commit(txn)
	s.mu.Unlock()
}

// Abort implements kernel.
func (s *serial) Abort(txn, blocker int) {
	s.mu.Lock()
	s.k.Abort(txn, blocker)
	s.mu.Unlock()
}

// Watermarks implements kernel. Safe from the journal hook: no store
// access ever happens under this mutex.
func (s *serial) Watermarks() (lo, hi int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.k.Watermarks()
}

// RaiseWatermarks implements kernel.
func (s *serial) RaiseWatermarks(lo, hi int64) {
	s.mu.Lock()
	s.k.RaiseWatermarks(lo, hi)
	s.mu.Unlock()
}
