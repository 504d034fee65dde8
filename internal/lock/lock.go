// Package lock implements the two-phase-locking baseline: a blocking lock
// manager with shared/exclusive modes, waits-for-graph deadlock detection,
// and a strict-2PL runtime scheduler (locks held until commit or abort,
// writes published atomically at commit). 2PL is the paper's primary
// comparison class (Fig. 4).
package lock

import (
	"sync"

	"repro/internal/sched"
	"repro/internal/storage"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

// lockState tracks the holders of one item's lock.
type lockState struct {
	holders map[int]Mode // txn -> strongest mode held
}

func (ls *lockState) compatible(txn int, mode Mode) bool {
	for t, m := range ls.holders {
		if t == txn {
			continue
		}
		if mode == Exclusive || m == Exclusive {
			return false
		}
	}
	return true
}

// Manager is a blocking lock manager with deadlock detection: a request
// that would close a cycle in the waits-for graph aborts immediately
// (the requester is the victim).
type Manager struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items map[string]*lockState
	// waitsFor[t] is the set of transactions t currently waits for.
	waitsFor  map[int]map[int]bool
	deadlocks int64
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	m := &Manager{
		items:    make(map[string]*lockState),
		waitsFor: make(map[int]map[int]bool),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Deadlocks returns the number of requests aborted by deadlock detection.
func (m *Manager) Deadlocks() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deadlocks
}

func (m *Manager) state(item string) *lockState {
	ls := m.items[item]
	if ls == nil {
		ls = &lockState{holders: make(map[int]Mode)}
		m.items[item] = ls
	}
	return ls
}

// wouldDeadlock reports whether txn waiting for the given holders closes a
// cycle in the waits-for graph.
func (m *Manager) wouldDeadlock(txn int, holders map[int]Mode) bool {
	// DFS from each blocking holder; if we can reach txn, adding
	// txn -> holder would close a cycle.
	var stack []int
	seen := map[int]bool{}
	for h := range holders {
		if h != txn {
			stack = append(stack, h)
		}
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t == txn {
			return true
		}
		if seen[t] {
			continue
		}
		seen[t] = true
		for next := range m.waitsFor[t] {
			stack = append(stack, next)
		}
	}
	return false
}

// Acquire blocks until txn holds item in at least the requested mode, or
// returns an error wrapping sched.ErrAbort if granting the wait would
// deadlock. Lock upgrades (Shared held, Exclusive requested) are
// supported.
func (m *Manager) Acquire(txn int, item string, mode Mode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := m.state(item)
	for {
		if held, ok := ls.holders[txn]; ok && (held == Exclusive || mode == Shared) {
			return nil // already strong enough
		}
		if ls.compatible(txn, mode) {
			if mode == Exclusive {
				ls.holders[txn] = Exclusive
			} else if _, held := ls.holders[txn]; !held {
				ls.holders[txn] = Shared
			}
			delete(m.waitsFor, txn)
			return nil
		}
		// Blocked: record waits-for edges and check for a cycle.
		if m.wouldDeadlock(txn, ls.holders) {
			m.deadlocks++
			delete(m.waitsFor, txn)
			return sched.Abort(txn, 0, "deadlock")
		}
		w := map[int]bool{}
		for h := range ls.holders {
			if h != txn {
				w[h] = true
			}
		}
		m.waitsFor[txn] = w
		m.cond.Wait()
		delete(m.waitsFor, txn)
		ls = m.state(item)
	}
}

// ReleaseAll releases every lock txn holds and wakes all waiters.
func (m *Manager) ReleaseAll(txn int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ls := range m.items {
		delete(ls.holders, txn)
	}
	delete(m.waitsFor, txn)
	m.cond.Broadcast()
}

// HeldBy returns the mode txn holds on item and whether it holds any.
func (m *Manager) HeldBy(txn int, item string) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ls, ok := m.items[item]; ok {
		mode, held := ls.holders[txn]
		return mode, held
	}
	return 0, false
}

// TwoPL is the strict two-phase-locking runtime scheduler.
type TwoPL struct {
	mgr   *Manager
	store *storage.Store

	mu   sync.Mutex
	txns map[int]*txnState
}

type txnState struct {
	writes map[string]int64
}

// NewTwoPL returns a strict-2PL scheduler over the store.
func NewTwoPL(store *storage.Store) *TwoPL {
	return &TwoPL{mgr: NewManager(), store: store, txns: make(map[int]*txnState)}
}

// Name implements sched.Scheduler.
func (t *TwoPL) Name() string { return "2PL" }

// Manager exposes the lock manager (deadlock statistics).
func (t *TwoPL) Manager() *Manager { return t.mgr }

// Begin implements sched.Scheduler.
func (t *TwoPL) Begin(txn int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.txns[txn] = &txnState{writes: make(map[string]int64)}
}

// state returns txn's live incarnation, or — for a stray operation on a
// transaction that never began or has finished — the plain abort
// sched.Scheduler's contract asks for, before it can take a lock nobody
// would release.
func (t *TwoPL) state(txn int) (*txnState, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.txns[txn]
	if st == nil {
		return nil, sched.Abort(txn, 0, "no live incarnation")
	}
	return st, nil
}

// Read implements sched.Scheduler: acquires a shared lock (blocking).
func (t *TwoPL) Read(txn int, item string) (int64, error) {
	st, err := t.state(txn)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	if v, ok := st.writes[item]; ok {
		t.mu.Unlock()
		return v, nil
	}
	t.mu.Unlock()
	if err := t.mgr.Acquire(txn, item, Shared); err != nil {
		return 0, err
	}
	return t.store.Get(item), nil
}

// Write implements sched.Scheduler: acquires an exclusive lock (blocking)
// and buffers the value.
func (t *TwoPL) Write(txn int, item string, v int64) error {
	st, err := t.state(txn)
	if err != nil {
		return err
	}
	if err := t.mgr.Acquire(txn, item, Exclusive); err != nil {
		return err
	}
	t.mu.Lock()
	st.writes[item] = v
	t.mu.Unlock()
	return nil
}

// Commit implements sched.Scheduler: publishes the writes, then releases
// every lock (strictness: no lock is released before commit).
func (t *TwoPL) Commit(txn int) error {
	t.mu.Lock()
	st := t.txns[txn]
	delete(t.txns, txn)
	t.mu.Unlock()
	defer t.mgr.ReleaseAll(txn)
	if st == nil {
		return sched.Abort(txn, 0, "no live incarnation")
	}
	t.store.Apply(st.writes)
	return nil
}

// Abort implements sched.Scheduler.
func (t *TwoPL) Abort(txn int) {
	t.mu.Lock()
	delete(t.txns, txn)
	t.mu.Unlock()
	t.mgr.ReleaseAll(txn)
}
