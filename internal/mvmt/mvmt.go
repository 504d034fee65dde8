// Package mvmt implements the multiversion extension of MT(k) sketched in
// implementation issue (d) of Section III-D-6: Reed's multiversion
// timestamp scheme [19] generalized from scalar timestamps to the paper's
// timestamp vectors.
//
// Every item keeps a stack of committed versions whose writers are
// totally ordered by their timestamp vectors. A read NEVER aborts: if the
// reader cannot be ordered after the newest version's writer, it slides
// down the version stack to the newest version whose writer precedes it —
// the failed Set against the newer writer has already established the
// required upper bound. Readers of the same version are chained through a
// per-version max-reader index (the same condition-iv discipline as
// MT(k)'s RT(x)), so a single index per version suffices. A write aborts
// only when some reader of the version it would supersede is already
// ordered after it.
package mvmt

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/storage"
)

// Options configures the multiversion MT scheduler.
type Options struct {
	// K is the vector size.
	K int
	// MaxVersions caps the per-item version stack; older versions are
	// pruned and a reader old enough to need them aborts (classic
	// multiversion GC). 0 means 16.
	MaxVersions int
}

// version is one committed version of an item.
type version struct {
	writer int
	value  int64
	reader int // max reader (0 = none); chained like RT(x)
}

// MVMT is the multiversion MT(k) runtime scheduler.
type MVMT struct {
	mu    sync.Mutex
	opts  Options
	tab   *engine.VectorTable
	store *storage.Store
	// versions[x] is ordered oldest..newest; index 0 is the virtual
	// initial version written by T_0.
	versions map[string][]*version
	txns     map[int]*txnState
	// readSlides counts reads served by an older version (the
	// never-abort benefit made measurable).
	readSlides int64
}

type txnState struct {
	writes  map[string]int64
	order   []string
	blocker int // last transaction whose order forced a failure
}

// New returns a multiversion MT(k) scheduler over the store.
func New(store *storage.Store, opts Options) *MVMT {
	if opts.K < 1 {
		panic("mvmt: Options.K must be >= 1")
	}
	if opts.MaxVersions <= 0 {
		opts.MaxVersions = 16
	}
	return &MVMT{
		opts:     opts,
		tab:      engine.NewVectorTable(opts.K),
		store:    store,
		versions: make(map[string][]*version),
		txns:     make(map[int]*txnState),
	}
}

// Name implements sched.Scheduler.
func (m *MVMT) Name() string { return fmt.Sprintf("MVMT(%d)", m.opts.K) }

// ReadSlides returns how many reads were served by an older version
// instead of aborting.
func (m *MVMT) ReadSlides() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.readSlides
}

// Begin implements sched.Scheduler.
func (m *MVMT) Begin(txn int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.txns[txn] = &txnState{writes: make(map[string]int64)}
}

// state returns txn's live incarnation, or — for a stray operation on a
// transaction that never began or has finished — the plain abort
// sched.Scheduler's contract asks for.
func (m *MVMT) state(txn int) (*txnState, error) {
	st := m.txns[txn]
	if st == nil {
		return nil, sched.Abort(txn, 0, "no live incarnation")
	}
	return st, nil
}

// stack returns the version stack of x, creating the virtual initial
// version on demand.
func (m *MVMT) stack(x string) []*version {
	if vs, ok := m.versions[x]; ok {
		return vs
	}
	vs := []*version{{writer: 0, value: m.store.Get(x)}}
	m.versions[x] = vs
	return vs
}

// Read implements sched.Scheduler. It never aborts unless GC pruned the
// only admissible version.
func (m *MVMT) Read(txn int, item string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.state(txn)
	if err != nil {
		return 0, err
	}
	if v, ok := st.writes[item]; ok {
		return v, nil
	}
	vs := m.stack(item)
	for i := len(vs) - 1; i >= 0; i-- {
		v := vs[i]
		if !m.tab.Set(v.writer, txn, false) {
			// TS(txn) < TS(writer) established: slide to an older version.
			continue
		}
		if i < len(vs)-1 {
			m.readSlides++
		}
		// Chain after the version's current max reader; if the reader is
		// already ordered after us, the line-9 analogue applies: we read
		// the version without becoming its max reader.
		if v.reader == 0 || m.tab.Set(v.reader, txn, false) {
			v.reader = txn
		}
		return v.value, nil
	}
	return 0, sched.Abort(txn, 0, "all admissible versions pruned")
}

// Write implements sched.Scheduler: buffered until commit.
func (m *MVMT) Write(txn int, item string, v int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.state(txn)
	if err != nil {
		return err
	}
	if _, ok := st.writes[item]; !ok {
		st.order = append(st.order, item)
	}
	st.writes[item] = v
	return nil
}

// Commit implements sched.Scheduler: each write finds its slot in the
// version order and aborts only if a reader of the superseded version is
// already ordered after the writer (Reed's rule, vector form). The whole
// write set installs atomically: a failure on any item undoes the
// versions already inserted during this commit (nobody can have read them
// — the scheduler mutex is held throughout).
func (m *MVMT) Commit(txn int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.state(txn)
	if err != nil {
		return err
	}
	var installed []string
	undoTop := map[string]int64{}
	for _, x := range st.order {
		undoTop[x] = m.store.Get(x)
		if err := m.installVersion(txn, x, st.writes[x]); err != nil {
			for _, ix := range installed {
				m.removeVersion(txn, ix)
				m.store.Set(ix, undoTop[ix])
			}
			// Keep the blocker so Abort can reseed the vector.
			return err
		}
		installed = append(installed, x)
	}
	delete(m.txns, txn)
	return nil
}

// removeVersion deletes txn's version of x from the stack (commit undo).
func (m *MVMT) removeVersion(txn int, x string) {
	vs := m.versions[x]
	keep := vs[:0]
	for _, v := range vs {
		if v.writer != txn {
			keep = append(keep, v)
		}
	}
	m.versions[x] = keep
}

// installVersion inserts txn's write of x into the version stack.
func (m *MVMT) installVersion(txn int, x string, val int64) error {
	vs := m.stack(x)
	st := m.txns[txn]
	slot := -1
	for i := len(vs) - 1; i >= 0; i-- {
		if m.tab.Set(vs[i].writer, txn, false) {
			slot = i
			break
		}
		if st != nil {
			st.blocker = vs[i].writer
		}
		// TS(txn) < TS(vs[i].writer) established: insert below.
	}
	if slot < 0 {
		return sched.Abort(txn, 0, "write below every retained version")
	}
	sup := vs[slot]
	// Readers of the superseded version must precede the new version.
	if sup.reader != 0 && !m.tab.Set(sup.reader, txn, false) {
		if st != nil {
			st.blocker = sup.reader
		}
		return sched.Abort(txn, sup.reader, "later read already saw the old version")
	}
	nv := &version{writer: txn, value: val}
	vs = append(vs, nil)
	copy(vs[slot+2:], vs[slot+1:])
	vs[slot+1] = nv
	// Prune the oldest versions beyond the cap (never the newest).
	if len(vs) > m.opts.MaxVersions {
		vs = vs[len(vs)-m.opts.MaxVersions:]
	}
	m.versions[x] = vs
	// The committed store always mirrors the newest version.
	m.store.Set(x, vs[len(vs)-1].value)
	return nil
}

// Abort implements sched.Scheduler. The transaction's vector is flushed
// and reseeded past its blocker (the Section III-D-4 starvation fix), so
// a retried incarnation is not stuck below the same writer; the reseeded
// first element dominates the old vector, so every established
// "w < TS(txn)" relation survives and no reader protection is lost.
func (m *MVMT) Abort(txn int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.txns[txn]
	if st != nil && st.blocker != 0 {
		if b := m.tab.Vector(st.blocker).Elem(1); b.Defined {
			m.tab.ReseedFirst(txn, b.V)
		}
	}
	delete(m.txns, txn)
}

// Versions returns the number of live versions of an item (tests).
func (m *MVMT) Versions(item string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.stack(item))
}
