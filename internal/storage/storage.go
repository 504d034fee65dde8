// Package storage provides the in-memory key-value store the transaction
// runtime executes against. Values are int64 (enough for the paper's
// workloads: account balances, counters). The store only ever holds
// committed data: schedulers buffer writes and Apply them atomically at
// commit (the paper's Section VI-C-2 "two-phase commit for each write
// operation" — temporary copies stay invisible to other transactions).
//
// Items are interned to dense int32 ids (the store owns the intern
// table and can share it with a scheduler, so both agree on ids), and
// committed state lives in dense per-shard slices indexed by id: the
// steady-state Get/ApplyTxnIDs path hashes no strings and allocates
// nothing. The keyspace is sharded with a per-shard RWMutex so reads
// and commits on disjoint items proceed concurrently; the only global
// serialization point is the commit mutex that sequences the batch
// version counter and the journal hook. A committing batch holds its
// items' shard locks ACROSS the journal call, so for any single item
// the journal order, the per-item version order and the in-memory
// apply order always agree — the property WAL replay correctness rests
// on.
package storage

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/explore/hook"
	"repro/internal/intern"
)

// shardCount is the number of shards (power of two).
const shardCount = 64

// ApplyEvent describes one committed batch, delivered to the journal
// hook in apply order (the hook runs under the commit mutex, so event
// order is the true commit order). Writes and Vers are owned by the
// store only for the duration of the call: a hook that retains them
// must copy.
type ApplyEvent struct {
	// Txn is the committing transaction (0 for anonymous batches such
	// as Set and legacy Apply callers).
	Txn int
	// Writes is the committed batch.
	Writes map[string]int64
	// Vers maps each written item to its per-item version after this
	// batch.
	Vers map[string]int64
	// Version is the store version after this batch.
	Version int64
}

// Journal observes committed batches. It is called synchronously under
// the commit mutex (with the batch's shard locks still held) and must
// be fast (enqueue, don't fsync).
type Journal func(ApplyEvent)

// State is a consistent copy of the committed state — data, per-item
// versions and the batch counter — the unit a checkpoint persists and
// recovery restores.
type State struct {
	Data     map[string]int64
	ItemVers map[string]int64
	Version  int64
}

// shard is one slice of the id space with its own lock. An item with
// id n lives at index n >> 6 of shard n & 63 (ids are dense, so shards
// grow in lockstep with the item count); the slices grow only under
// the shard's write lock.
type shard struct {
	mu      sync.RWMutex
	vals    []int64
	vers    []int64
	written []bool // item has committed data (vals valid)
}

// ensure grows the shard to cover in-shard index li (write lock held).
func (sh *shard) ensure(li int) {
	for li >= len(sh.vals) {
		sh.vals = append(sh.vals, 0)
		sh.vers = append(sh.vers, 0)
		sh.written = append(sh.written, false)
	}
}

// Store is a concurrency-safe committed-state KV store, sharded by
// interned item id.
type Store struct {
	names  *intern.Table
	shards [shardCount]shard
	// commitMu is the global ordering point: it sequences the batch
	// version counter and the journal hook. It nests strictly inside the
	// shard locks (ApplyTxn holds the batch's shards, then commitMu).
	commitMu sync.Mutex
	// version counts committed Apply batches, handy for validation
	// schemes that need a cheap global commit counter. Guarded by
	// commitMu.
	version int64
	// journal, when set, observes every committed batch under commitMu;
	// jset mirrors journal != nil so the apply path can skip building
	// the event maps without taking commitMu early.
	journal Journal
	jset    atomic.Bool
}

// New returns an empty store.
func New() *Store {
	return &Store{names: intern.New()}
}

// Restore builds a store from a recovered state. The state is copied;
// a nil map restores as empty.
func Restore(st State) *Store {
	s := New()
	for x, v := range st.Data {
		id := s.names.ID(x)
		sh, li := s.shardOf(id)
		sh.ensure(li)
		sh.vals[li] = v
		sh.written[li] = true
	}
	for x, v := range st.ItemVers {
		id := s.names.ID(x)
		sh, li := s.shardOf(id)
		sh.ensure(li)
		sh.vers[li] = v
	}
	s.version = st.Version
	return s
}

// Interner exposes the store's item-intern table, so a scheduler built
// with engine.NewStripedInterned shares the store's id space and the
// runtime adapter can drive the id-indexed fast path end to end.
func (s *Store) Interner() *intern.Table { return s.names }

// IDOf interns item and returns its dense id.
func (s *Store) IDOf(item string) int32 { return s.names.ID(item) }

func (s *Store) shardOf(id int32) (*shard, int) {
	return &s.shards[int(uint32(id))&(shardCount-1)], int(id) >> 6
}

// SetJournal installs (or clears, with nil) the journaling hook. Set it
// before traffic flows: batches applied earlier are not re-delivered.
func (s *Store) SetJournal(j Journal) {
	s.commitMu.Lock()
	s.journal = j
	s.jset.Store(j != nil)
	s.commitMu.Unlock()
}

// Get returns the committed value of item (0 if never written).
func (s *Store) Get(item string) int64 {
	return s.GetID(s.names.ID(item))
}

// GetID is Get keyed by interned id: the allocation-free fast path.
func (s *Store) GetID(id int32) int64 {
	if hook.Enabled() {
		hook.Yield("storage.get", s.names.Name(id), 0, 0)
	}
	sh, li := s.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if li >= len(sh.vals) {
		return 0
	}
	return sh.vals[li]
}

// lockAll acquires every shard lock in index order (write mode) and
// returns an unlock function. Whole-store snapshots use it; the index
// order matches the apply path, so snapshots and commits cannot
// deadlock.
func (s *Store) lockAll() func() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	return func() {
		for i := shardCount - 1; i >= 0; i-- {
			s.shards[i].mu.Unlock()
		}
	}
}

// rlockAll acquires every shard lock in index order (read mode).
func (s *Store) rlockAll() func() {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	return func() {
		for i := shardCount - 1; i >= 0; i-- {
			s.shards[i].mu.RUnlock()
		}
	}
}

// GetMany returns the committed values of several items atomically.
func (s *Store) GetMany(items []string) map[string]int64 {
	unlock := s.rlockAll()
	defer unlock()
	out := make(map[string]int64, len(items))
	for _, x := range items {
		out[x] = s.lockedGet(s.names.ID(x))
	}
	return out
}

// lockedGet reads one value with the item's shard lock already held.
func (s *Store) lockedGet(id int32) int64 {
	sh, li := s.shardOf(id)
	if li >= len(sh.vals) {
		return 0
	}
	return sh.vals[li]
}

// Apply commits a write batch atomically and returns the new version.
func (s *Store) Apply(writes map[string]int64) int64 {
	return s.ApplyTxn(0, writes)
}

// shardSet is the fixed-size scratch for a batch's deduplicated shard
// indices; it lives on the apply path's stack.
type shardSet struct {
	seen [shardCount]bool
	idx  [shardCount]int
	n    int
}

func (ss *shardSet) add(id int32) {
	i := int(uint32(id)) & (shardCount - 1)
	if !ss.seen[i] {
		ss.seen[i] = true
		ss.idx[ss.n] = i
		ss.n++
	}
}

// lock acquires the collected shards in ascending index order.
func (ss *shardSet) lock(s *Store) {
	slices.Sort(ss.idx[:ss.n])
	for _, i := range ss.idx[:ss.n] {
		s.shards[i].mu.Lock()
	}
}

func (ss *shardSet) unlock(s *Store) {
	for j := ss.n - 1; j >= 0; j-- {
		s.shards[ss.idx[j]].mu.Unlock()
	}
}

// ApplyTxn commits a write batch atomically on behalf of txn and
// returns the new version. The batch's shard locks are held across the
// journal call, and the version bump plus the journal hook run under
// the commit mutex: journal order is commit order globally, and agrees
// with the per-item version order item by item.
func (s *Store) ApplyTxn(txn int, writes map[string]int64) int64 {
	hook.Yield("storage.apply", "", int64(txn), 0)
	var ss shardSet
	for x := range writes {
		ss.add(s.names.ID(x))
	}
	ss.lock(s)
	defer ss.unlock(s)
	var vers map[string]int64
	if s.jset.Load() {
		vers = make(map[string]int64, len(writes))
	}
	for x, v := range writes {
		ver := s.applyOne(s.names.ID(x), v)
		if vers != nil {
			vers[x] = ver
		}
	}
	return s.finishCommit(txn, writes, vers)
}

// ApplyTxnIDs is ApplyTxn keyed by interned ids: ids[i] is written
// vals[i]. Duplicate ids apply in slice order. Allocation-free unless
// a journal is installed (the event's maps are then materialized from
// the intern table).
func (s *Store) ApplyTxnIDs(txn int, ids []int32, vals []int64) int64 {
	hook.Yield("storage.apply", "", int64(txn), 0)
	var ss shardSet
	for _, id := range ids {
		ss.add(id)
	}
	ss.lock(s)
	defer ss.unlock(s)
	var writes, vers map[string]int64
	if s.jset.Load() {
		writes = make(map[string]int64, len(ids))
		vers = make(map[string]int64, len(ids))
	}
	for i, id := range ids {
		ver := s.applyOne(id, vals[i])
		if writes != nil {
			x := s.names.Name(id)
			writes[x] = vals[i]
			vers[x] = ver
		}
	}
	return s.finishCommit(txn, writes, vers)
}

// applyOne writes one value (shard lock held) and returns the item's
// new version.
func (s *Store) applyOne(id int32, v int64) int64 {
	sh, li := s.shardOf(id)
	sh.ensure(li)
	sh.vals[li] = v
	sh.written[li] = true
	sh.vers[li]++
	return sh.vers[li]
}

// finishCommit sequences the batch under the commit mutex (shard locks
// still held) and emits the journal event.
func (s *Store) finishCommit(txn int, writes, vers map[string]int64) int64 {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.version++
	// The journal boundary event: emitted under commitMu with the shard
	// locks held, so observation order IS global commit order (never a
	// preemption point — commitMu is uninstrumented).
	hook.Observe("storage.commit", "", int64(txn), s.version)
	if s.journal != nil {
		if writes == nil {
			writes = map[string]int64{}
		}
		if vers == nil {
			vers = map[string]int64{}
		}
		s.journal(ApplyEvent{Txn: txn, Writes: writes, Vers: vers, Version: s.version})
	}
	return s.version
}

// Set commits a single value.
func (s *Store) Set(item string, v int64) {
	s.ApplyTxn(0, map[string]int64{item: v})
}

// ItemVersion returns the number of commits that wrote item (0 if never
// written).
func (s *Store) ItemVersion(item string) int64 {
	id, ok := s.names.Lookup(item)
	if !ok {
		return 0
	}
	sh, li := s.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if li >= len(sh.vers) {
		return 0
	}
	return sh.vers[li]
}

// Version returns the number of committed batches so far.
func (s *Store) Version() int64 {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return s.version
}

// Snapshot returns a copy of the committed state.
func (s *Store) Snapshot() map[string]int64 {
	unlock := s.rlockAll()
	defer unlock()
	out := make(map[string]int64)
	for id, name := range s.names.Names() {
		sh, li := s.shardOf(int32(id))
		if li < len(sh.written) && sh.written[li] {
			out[name] = sh.vals[li]
		}
	}
	return out
}

// State returns a consistent copy of the full committed state: data,
// per-item versions and the batch counter — what a checkpoint persists
// and what verification harnesses diff against a shadow copy. It locks
// every shard plus the commit mutex, so no batch is half-visible.
func (s *Store) State() State {
	unlock := s.rlockAll()
	defer unlock()
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	st := State{
		Data:     make(map[string]int64),
		ItemVers: make(map[string]int64),
		Version:  s.version,
	}
	for id, name := range s.names.Names() {
		sh, li := s.shardOf(int32(id))
		if li >= len(sh.written) {
			continue
		}
		if sh.written[li] {
			st.Data[name] = sh.vals[li]
		}
		if sh.vers[li] > 0 {
			st.ItemVers[name] = sh.vers[li]
		}
	}
	return st
}

// Sum returns the sum of the committed values of the given items
// (atomically), used by invariant checks such as the banking example.
func (s *Store) Sum(items []string) int64 {
	unlock := s.rlockAll()
	defer unlock()
	var sum int64
	for _, x := range items {
		if id, ok := s.names.Lookup(x); ok {
			sum += s.lockedGet(id)
		}
	}
	return sum
}
