// Package intern maps item names to dense int32 ids so the hot path
// can index slices instead of hashing strings into maps.
//
// The design target is the striped engine's steady state: every
// operation resolves its item's id, and almost every resolution is a
// repeat of a name seen before. The read path is therefore lock-free
// and allocation-free — one atomic load plus one map probe, or for the
// few names not yet promoted into that map a short scan of the published
// name slice — while first-time interning takes a mutex and pays an
// amortized-O(1) copy. A table that never grows past a handful of names
// (one per enumerated log in the census tools) therefore never builds
// the map at all and never locks on a repeat lookup.
//
// Ids are assigned densely from 0 in interning order, so a Table with
// n names has exactly ids 0..n-1: callers can use ids directly as
// slice indices (the whole point).
package intern

import (
	"sync"
	"sync/atomic"
)

// Table interns strings to dense int32 ids.
//
// Concurrency: ID, Lookup, Name, Names and Len are safe for concurrent
// use and never block on the writer; ID blocks only when the name is
// new (or interned since the last promotion of a large table, when the
// unpromoted tail is too long to scan).
type Table struct {
	// read is the lock-free lookup map. It is copy-on-write: readers
	// load the pointer and probe; the writer publishes a fresh map. A
	// promotion merges every name interned so far, so read always holds
	// exactly the ids below len(read).
	read atomic.Pointer[map[string]int32]

	// names is the published id -> name slice. Append-only: a new
	// header is published after the new element is written, so any
	// reader holding an id sees a slice that covers it.
	names atomic.Pointer[[]string]

	mu    sync.Mutex
	dirty map[string]int32 // interned but not yet promoted into read
	all   []string         // authoritative id -> name, guarded by mu
}

// The state every new table publishes: nothing read, nothing named.
// Shared and never written (promotion and interning publish fresh
// values), so New allocates the Table alone.
var (
	noRead  map[string]int32
	noNames []string
)

// promoteMin is the smallest unpromoted overlay worth a promotion.
// Below it ID compares the unpromoted names one by one instead of
// taking the mutex, so a table of fewer names is served by the scan
// alone, and one that reaches it gets its map exactly when it always
// did.
const promoteMin = 16

// New returns an empty table.
func New() *Table {
	t := &Table{}
	t.read.Store(&noRead)
	t.names.Store(&noNames)
	return t
}

// ID returns the dense id for name, interning it on first use.
func (t *Table) ID(name string) int32 {
	read := *t.read.Load()
	if id, ok := read[name]; ok {
		return id
	}
	// The names slice is loaded after the map and is published before
	// it, so it covers every id the map holds; what lies past len(read)
	// is the unpromoted tail.
	if tail := (*t.names.Load())[len(read):]; len(tail) < promoteMin {
		for i, n := range tail {
			if n == name {
				return int32(len(read) + i)
			}
		}
	}
	return t.intern(name)
}

// Lookup returns the id for name without interning it.
func (t *Table) Lookup(name string) (int32, bool) {
	if id, ok := (*t.read.Load())[name]; ok {
		return id, true
	}
	t.mu.Lock()
	id, ok := t.dirty[name]
	t.mu.Unlock()
	return id, ok
}

// Name returns the name for id. It panics if id was never assigned by
// this table (mirroring a slice bounds failure: ids are trusted,
// dense, and produced only by ID).
func (t *Table) Name(id int32) string {
	return (*t.names.Load())[id]
}

// Names returns the published id -> name slice. The slice is
// append-only and must not be mutated by the caller; index i holds the
// name with id i.
func (t *Table) Names() []string {
	return *t.names.Load()
}

// Len returns the number of interned names.
func (t *Table) Len() int {
	return len(*t.names.Load())
}

// intern assigns an id to a new name under the table mutex.
func (t *Table) intern(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Re-check under the lock: the name may have been interned (into
	// either map) since the lock-free probe missed.
	if id, ok := (*t.read.Load())[name]; ok {
		return id
	}
	if id, ok := t.dirty[name]; ok {
		return id
	}
	id := int32(len(t.all))
	if t.all == nil {
		t.all = make([]string, 0, promoteMin)
	}
	t.all = append(t.all, name)
	// Publish the grown names slice. Appending may write one past the
	// previously published length in a shared backing array, which is
	// safe: readers of the old header cannot index past its length, and
	// the new header is published with release ordering.
	namesCopy := t.all
	t.names.Store(&namesCopy)
	if t.dirty == nil {
		t.dirty = make(map[string]int32)
	}
	t.dirty[name] = id
	// Promote once the unpromoted overlay is a quarter of the read map
	// (minimum promoteMin): amortized O(1) per interned name, and
	// recently interned names stop paying the mutex on lookup.
	if read := *t.read.Load(); len(t.dirty) >= promoteMin && len(t.dirty)*4 >= len(read) {
		merged := make(map[string]int32, len(read)+len(t.dirty))
		for k, v := range read {
			merged[k] = v
		}
		for k, v := range t.dirty {
			merged[k] = v
		}
		t.read.Store(&merged)
		t.dirty = nil
	}
	return id
}
