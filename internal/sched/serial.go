package sched

import (
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/intern"
	"repro/internal/oplog"
	"repro/internal/storage"
)

// serial makes an unsynchronised protocol a kernel: a mutex around
// every call, the interned id turned back into the item's name. The
// protocol state of MT(k⁺) and MT(k1,…,kl) stays under this one mutex —
// an epoch restart swaps the whole composite scheduler and the nested
// tables are plain maps, which no per-item scheme survives — but it
// covers the protocol step only: the adapter holds the item latches
// around it and does the store access outside it, so storage reads and
// commit publishes on disjoint items still overlap.
type serial struct {
	mu    sync.Mutex
	proto protocol
	names *intern.Table
}

// newSerialAdapter returns the adapter over p, with a latch table of
// its own bound to the store's intern table.
func newSerialAdapter(store *storage.Store, f family, p protocol) *adapter {
	lt := core.NewLatchTable(engine.DefaultStripes)
	lt.BindInterner(store.Interner())
	return newAdapter(store, f, &serial{proto: p, names: store.Interner()}, lt)
}

func (s *serial) step(op oplog.Op) (core.Verdict, int) {
	s.mu.Lock()
	d := s.proto.Step(op)
	s.mu.Unlock()
	return d.Verdict, d.Blocker
}

// StepReadID implements kernel.
func (s *serial) StepReadID(txn int, id int32) (core.Verdict, int) {
	return s.step(oplog.R(txn, s.names.Name(id)))
}

// StepWriteID implements kernel.
func (s *serial) StepWriteID(txn int, id int32) (core.Verdict, int) {
	return s.step(oplog.W(txn, s.names.Name(id)))
}

// Commit implements kernel.
func (s *serial) Commit(txn int) {
	s.mu.Lock()
	s.proto.Commit(txn)
	s.mu.Unlock()
}

// Abort implements kernel.
func (s *serial) Abort(txn, blocker int) {
	s.mu.Lock()
	s.proto.Abort(txn, blocker)
	s.mu.Unlock()
}

// Watermarks implements kernel. Safe from the journal hook: no store
// access ever happens under this mutex.
func (s *serial) Watermarks() (lo, hi int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.proto.Watermarks()
}

// RaiseWatermarks implements kernel.
func (s *serial) RaiseWatermarks(lo, hi int64) {
	s.mu.Lock()
	s.proto.RaiseWatermarks(lo, hi)
	s.mu.Unlock()
}
