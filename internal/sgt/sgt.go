// Package sgt implements the serialization-graph-tester baseline: the
// scheduler that accepts exactly the D-serializable prefixes (the class
// DSR of Fig. 4, the outer envelope of every MT(k)). It maintains the
// direct-conflict digraph over live and recently committed transactions
// and aborts any operation that would close a cycle. DSR recognition
// costs O(n²q) [16], which is the price MT(k) avoids with its O(nqk)
// vector encoding — the benchmarks make that gap visible.
package sgt

import (
	"sync"

	"repro/internal/sched"
	"repro/internal/storage"
)

// access records one transaction's accesses to an item.
type access struct {
	txn   int
	wrote bool
	read  bool
}

// SGT is the serialization-graph-tester runtime scheduler.
type SGT struct {
	mu    sync.Mutex
	store *storage.Store
	// history[x] lists, in order, the transactions that accessed x.
	history map[string][]*access
	// edges is the conflict digraph (adjacency sets).
	edges map[int]map[int]bool
	live  map[int]*txnState
	// committedLive tracks committed transactions that still participate
	// in the graph because a cycle through them is possible.
	committed map[int]bool
}

type txnState struct {
	writes map[string]int64
}

// New returns an SGT scheduler over the store.
func New(store *storage.Store) *SGT {
	return &SGT{
		store:     store,
		history:   make(map[string][]*access),
		edges:     make(map[int]map[int]bool),
		live:      make(map[int]*txnState),
		committed: make(map[int]bool),
	}
}

// Name implements sched.Scheduler.
func (s *SGT) Name() string { return "SGT" }

// Begin implements sched.Scheduler.
func (s *SGT) Begin(txn int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live[txn] = &txnState{writes: make(map[string]int64)}
}

// state returns txn's live incarnation, or — for a stray operation on a
// transaction that never began or has finished — the plain abort
// sched.Scheduler's contract asks for.
func (s *SGT) state(txn int) (*txnState, error) {
	st := s.live[txn]
	if st == nil {
		return nil, sched.Abort(txn, 0, "no live incarnation")
	}
	return st, nil
}

// addEdge inserts u -> v.
func (s *SGT) addEdge(u, v int) {
	if u == v {
		return
	}
	if s.edges[u] == nil {
		s.edges[u] = make(map[int]bool)
	}
	s.edges[u][v] = true
}

// reachable reports whether to is reachable from from.
func (s *SGT) reachable(from, to int) bool {
	seen := map[int]bool{}
	stack := []int{from}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t == to {
			return true
		}
		if seen[t] {
			continue
		}
		seen[t] = true
		for n := range s.edges[t] {
			stack = append(stack, n)
		}
	}
	return false
}

// observe registers an access of txn to item and returns an error if the
// new conflict edges would close a cycle.
func (s *SGT) observe(txn int, item string, write bool) error {
	// Collect the new edges first, then test before inserting.
	var preds []int
	for _, a := range s.history[item] {
		if a.txn == txn {
			continue
		}
		if write || a.wrote { // conflicting pair
			preds = append(preds, a.txn)
		}
	}
	for _, p := range preds {
		if s.edges[p] != nil && s.edges[p][txn] {
			continue // already present
		}
		// Adding p -> txn closes a cycle iff p is reachable from txn.
		if s.reachable(txn, p) {
			return sched.Abort(txn, p, "serialization cycle")
		}
		s.addEdge(p, txn)
	}
	// Record the access (merge with an existing record of txn on item).
	for _, a := range s.history[item] {
		if a.txn == txn {
			a.wrote = a.wrote || write
			a.read = a.read || !write
			return nil
		}
	}
	s.history[item] = append(s.history[item], &access{txn: txn, wrote: write, read: !write})
	return nil
}

// Read implements sched.Scheduler. A read over an item with a live
// (uncommitted) writer aborts: the conflict edge would order the reader
// after the writer while the committed store still holds the old value
// (the data publishes at commit), losing the update.
func (s *SGT) Read(txn int, item string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.state(txn)
	if err != nil {
		return 0, err
	}
	if v, ok := st.writes[item]; ok {
		return v, nil
	}
	if w := s.liveWriter(txn, item); w != 0 {
		return 0, sched.Abort(txn, w, "read over uncommitted writer")
	}
	if err := s.observe(txn, item, false); err != nil {
		return 0, err
	}
	return s.store.Get(item), nil
}

// liveWriter returns a live transaction other than txn that has written
// item, 0 if there is none.
func (s *SGT) liveWriter(txn int, item string) int {
	for _, a := range s.history[item] {
		if a.wrote && a.txn != txn {
			if _, live := s.live[a.txn]; live {
				return a.txn
			}
		}
	}
	return 0
}

// Write implements sched.Scheduler: the conflict edges are inserted at
// write time; data publishes at commit. A write over an item with a live
// writer aborts, as sched.MT.Write does: the edge would order this
// writer after that one, but the store takes their values in commit
// order, so the earlier-ordered one committing last would clobber the
// later-ordered committed value.
func (s *SGT) Write(txn int, item string, v int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.state(txn)
	if err != nil {
		return err
	}
	if w := s.liveWriter(txn, item); w != 0 {
		return sched.Abort(txn, w, "write conflicts with uncommitted writer")
	}
	if err := s.observe(txn, item, true); err != nil {
		return err
	}
	st.writes[item] = v
	return nil
}

// Commit implements sched.Scheduler.
func (s *SGT) Commit(txn int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.state(txn)
	if err != nil {
		return err
	}
	s.store.Apply(st.writes)
	delete(s.live, txn)
	s.committed[txn] = true
	s.gc()
	return nil
}

// Abort implements sched.Scheduler: the transaction's node, edges and
// access records disappear.
func (s *SGT) Abort(txn int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.live, txn)
	s.removeNode(txn)
}

func (s *SGT) removeNode(txn int) {
	delete(s.edges, txn)
	for _, adj := range s.edges {
		delete(adj, txn)
	}
	for item, hist := range s.history {
		keep := hist[:0]
		for _, a := range hist {
			if a.txn != txn {
				keep = append(keep, a)
			}
		}
		s.history[item] = keep
	}
	delete(s.committed, txn)
}

// gc removes committed source nodes: a committed transaction with no
// incoming edges can never be part of a future cycle, so its node and
// history entries are dropped. Iterates to a fixed point.
func (s *SGT) gc() {
	indeg := map[int]int{}
	for _, adj := range s.edges {
		for v := range adj {
			indeg[v]++
		}
	}
	changed := true
	for changed {
		changed = false
		for txn := range s.committed {
			if indeg[txn] == 0 {
				for v := range s.edges[txn] {
					indeg[v]--
				}
				s.removeNode(txn)
				changed = true
			}
		}
	}
}

// GraphSize returns the number of nodes with edges plus live access
// records (gc tests).
func (s *SGT) GraphSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	nodes := map[int]bool{}
	for u, adj := range s.edges {
		nodes[u] = true
		for v := range adj {
			nodes[v] = true
		}
	}
	return len(nodes)
}
