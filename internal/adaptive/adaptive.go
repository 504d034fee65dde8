// Package adaptive implements the adaptable concurrency control the
// paper's Section IV closes with: "the timestamp vector is a useful tool
// for switching between classes of concurrency algorithms such as MT(k1)
// and MT(k2) — this work is being used for the design of adaptable
// concurrency control mechanisms [8]".
//
// The Adaptive scheduler wraps MT(k) and re-tunes the vector size between
// epochs based on observed behaviour, following the Section VI-B
// guidelines: high conflict (abort pressure) favours a larger vector
// (guideline a), low conflict favours a smaller one (storage/processing,
// guideline b). Because timestamp vectors of different sizes cannot be
// compared, a switch only happens at an epoch boundary when no
// transaction is live; the request is recorded and applied lazily.
package adaptive

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/storage"
)

// Options tunes the adaptation policy.
type Options struct {
	// InitialK is the starting vector size (>= 1).
	InitialK int
	// MinK/MaxK bound the adaptation range (defaults 1 and 9).
	MinK, MaxK int
	// Window is the number of finished transactions per measurement
	// epoch (default 64).
	Window int
	// GrowAbove grows k when the epoch abort rate exceeds it
	// (default 0.20); ShrinkBelow shrinks k below it (default 0.05).
	GrowAbove, ShrinkBelow float64
	// Core carries the protocol options applied at every k (K ignored).
	Core engine.Options
	// DeferWrites selects the Section VI-C-2 write discipline.
	DeferWrites bool
}

func (o *Options) defaults() {
	if o.InitialK < 1 {
		o.InitialK = 3
	}
	if o.MinK < 1 {
		o.MinK = 1
	}
	if o.MaxK < o.MinK {
		o.MaxK = 9
	}
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.GrowAbove == 0 {
		o.GrowAbove = 0.20
	}
	if o.ShrinkBelow == 0 {
		o.ShrinkBelow = 0.05
	}
}

// Adaptive is a self-tuning MT(k) runtime scheduler.
type Adaptive struct {
	mu    sync.Mutex
	opts  Options
	store *storage.Store
	inner sched.Scheduler
	k     int

	live     map[int]bool
	pendingK int // 0 = no switch requested
	finished int
	aborted  int
	switches int
	history  []int // k of each epoch, for inspection
}

// New returns an adaptive scheduler over the store.
func New(store *storage.Store, opts Options) *Adaptive {
	opts.defaults()
	a := &Adaptive{
		opts:  opts,
		store: store,
		k:     opts.InitialK,
		live:  make(map[int]bool),
	}
	a.inner = a.build(a.k)
	a.history = append(a.history, a.k)
	return a
}

// build returns one epoch's scheduler: MT(k) on the production path.
func (a *Adaptive) build(k int) sched.Scheduler {
	c := a.opts.Core
	c.K = k
	return sched.NewMTStriped(a.store, sched.MTOptions{Core: c, DeferWrites: a.opts.DeferWrites})
}

// Name implements sched.Scheduler.
func (a *Adaptive) Name() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return fmt.Sprintf("Adaptive-MT(k=%d)", a.k)
}

// K returns the current vector size.
func (a *Adaptive) K() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.k
}

// Switches returns how many epoch switches have been applied.
func (a *Adaptive) Switches() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.switches
}

// History returns the k of every epoch so far.
func (a *Adaptive) History() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int(nil), a.history...)
}

// Begin implements sched.Scheduler.
func (a *Adaptive) Begin(txn int) {
	a.mu.Lock()
	a.live[txn] = true
	inner := a.inner
	a.mu.Unlock()
	inner.Begin(txn)
}

// Read implements sched.Scheduler.
func (a *Adaptive) Read(txn int, item string) (int64, error) {
	a.mu.Lock()
	inner := a.inner
	a.mu.Unlock()
	return inner.Read(txn, item)
}

// Write implements sched.Scheduler.
func (a *Adaptive) Write(txn int, item string, v int64) error {
	a.mu.Lock()
	inner := a.inner
	a.mu.Unlock()
	return inner.Write(txn, item, v)
}

// Commit implements sched.Scheduler.
func (a *Adaptive) Commit(txn int) error {
	a.mu.Lock()
	inner := a.inner
	a.mu.Unlock()
	err := inner.Commit(txn)
	a.finish(txn, err != nil)
	return err
}

// Abort implements sched.Scheduler.
func (a *Adaptive) Abort(txn int) {
	a.mu.Lock()
	inner := a.inner
	a.mu.Unlock()
	inner.Abort(txn)
	a.finish(txn, true)
}

// finish updates the epoch statistics, decides on a resize and applies a
// pending switch once no transaction is live.
func (a *Adaptive) finish(txn int, aborted bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.live, txn)
	a.finished++
	if aborted {
		a.aborted++
	}
	if a.finished >= a.opts.Window && a.pendingK == 0 {
		rate := float64(a.aborted) / float64(a.finished)
		next := a.k
		switch {
		case rate > a.opts.GrowAbove && a.k < a.opts.MaxK:
			next = a.k + 2 // vectors grow in odd steps toward 2q-1
			if next > a.opts.MaxK {
				next = a.opts.MaxK
			}
		case rate < a.opts.ShrinkBelow && a.k > a.opts.MinK:
			next = a.k - 2
			if next < a.opts.MinK {
				next = a.opts.MinK
			}
		}
		if next != a.k {
			a.pendingK = next
		}
		a.finished, a.aborted = 0, 0
	}
	if a.pendingK != 0 && len(a.live) == 0 {
		a.k = a.pendingK
		a.pendingK = 0
		a.inner = a.build(a.k)
		a.switches++
		a.history = append(a.history, a.k)
	}
}
