package sched_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/classify"
	"repro/internal/dmt"
	"repro/internal/engine"
	"repro/internal/oplog"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

// equivPair is a pair under differential test: a coarse reference
// scheduler and its striped subject, over separate but identically
// seeded stores. Both sides must implement DurableCounters so the
// suite can assert watermark parity on top of behavioural parity.
type equivPair struct {
	ref, subj     sched.Scheduler
	rstore, store *storage.Store
	deferred      bool
}

// newPair builds a pair from a production constructor: the subject over
// one store, its reference (sched.Reference: the global-mutex lifecycle
// over the same family's kernel, same options) over another.
func newPair(build func(*storage.Store) sched.Scheduler, deferred bool) *equivPair {
	rs, ss := storage.New(), storage.New()
	subj := build(ss)
	return &equivPair{
		ref:      sched.Reference(subj, rs),
		subj:     subj,
		rstore:   rs,
		store:    ss,
		deferred: deferred,
	}
}

// newMTPair builds the original MT pair: the retained coarse
// global-mutex lifecycle as the reference, the striped adapter as the
// subject.
func newMTPair(opts sched.MTOptions) *equivPair {
	return newPair(func(s *storage.Store) sched.Scheduler { return sched.NewMTStriped(s, opts) }, opts.DeferWrites)
}

// runEquivWorkload interleaves the workload's transactions operation by
// operation (seeded round-robin, fully deterministic) through BOTH
// adapters, asserting identical outcomes event by event: read values,
// accept/reject verdicts, abort blockers, commit results. Aborted
// transactions are retried once with the same id (exercising the
// starvation-fix reseed on both sides). Returns the accepted op log
// (identical for both by construction) restricted to committed
// transactions, plus the committed set.
func runEquivWorkload(t *testing.T, pair *equivPair, specs []txn.Spec, seed int64) *oplog.Log {
	t.Helper()
	type state struct {
		spec    txn.Spec
		next    int // next op index
		retries int // incarnations used
		ops     []oplog.Op
	}
	rng := rand.New(rand.NewSource(seed))
	// Admission window: like the runtime's worker pool, only a handful of
	// transactions are live at once; the rest queue behind them.
	const window = 4
	pending := specs
	var livea []*state
	admit := func() {
		for len(livea) < window && len(pending) > 0 {
			sp := pending[0]
			pending = pending[1:]
			livea = append(livea, &state{spec: sp})
			pair.ref.Begin(sp.ID)
			pair.subj.Begin(sp.ID)
		}
	}
	admit()
	committed := map[int]bool{}
	var committedOps []oplog.Op
	abortBoth := func(st *state) bool {
		// Returns true if the transaction got a retry incarnation.
		pair.ref.Abort(st.spec.ID)
		pair.subj.Abort(st.spec.ID)
		st.ops = nil
		if st.retries >= 3 {
			return false
		}
		st.retries++
		st.next = 0
		pair.ref.Begin(st.spec.ID)
		pair.subj.Begin(st.spec.ID)
		return true
	}
	for len(livea) > 0 {
		i := rng.Intn(len(livea))
		st := livea[i]
		id := st.spec.ID
		drop := false
		if st.next < len(st.spec.Ops) {
			op := st.spec.Ops[st.next]
			if op.Kind == oplog.Read {
				cv, cerr := pair.ref.Read(id, op.Item)
				sv, serr := pair.subj.Read(id, op.Item)
				assertSameOutcome(t, id, st.next, "read "+op.Item, cv, cerr, sv, serr)
				if cerr != nil {
					drop = !abortBoth(st)
				} else {
					st.ops = append(st.ops, oplog.R(id, op.Item))
					st.next++
				}
			} else {
				v := int64(id)*1000 + int64(st.next)
				cerr := pair.ref.Write(id, op.Item, v)
				serr := pair.subj.Write(id, op.Item, v)
				assertSameOutcome(t, id, st.next, "write "+op.Item, 0, cerr, 0, serr)
				if cerr != nil {
					drop = !abortBoth(st)
				} else {
					if !pair.deferred {
						st.ops = append(st.ops, oplog.W(id, op.Item))
					}
					st.next++
				}
			}
		} else {
			cerr := pair.ref.Commit(id)
			serr := pair.subj.Commit(id)
			assertSameOutcome(t, id, st.next, "commit", 0, cerr, 0, serr)
			if cerr != nil {
				drop = !abortBoth(st)
			} else {
				if pair.deferred {
					// Commit-time validation replays the buffered writes in
					// first-write order — reconstruct that order here.
					seen := map[string]bool{}
					for _, op := range st.spec.Ops {
						if op.Kind == oplog.Write && !seen[op.Item] {
							seen[op.Item] = true
							st.ops = append(st.ops, oplog.W(id, op.Item))
						}
					}
				}
				committed[id] = true
				committedOps = append(committedOps, st.ops...)
				drop = true
			}
		}
		if drop {
			livea[i] = livea[len(livea)-1]
			livea = livea[:len(livea)-1]
			admit()
		}
	}
	if len(committed) == 0 {
		t.Fatal("no transaction committed")
	}
	return oplog.NewLog(committedOps...)
}

func assertSameOutcome(t *testing.T, id, opIdx int, what string, cv int64, cerr error, sv int64, serr error) {
	t.Helper()
	if (cerr == nil) != (serr == nil) {
		t.Fatalf("t%d.op%d %s: ref err=%v subj err=%v", id, opIdx, what, cerr, serr)
	}
	if cerr == nil {
		if cv != sv {
			t.Fatalf("t%d.op%d %s: ref value %d subj value %d", id, opIdx, what, cv, sv)
		}
		return
	}
	var ca, sa *sched.AbortError
	if !errors.As(cerr, &ca) || !errors.As(serr, &sa) {
		t.Fatalf("t%d.op%d %s: non-abort errors ref=%v subj=%v", id, opIdx, what, cerr, serr)
	}
	if ca.Blocker != sa.Blocker || ca.Reason != sa.Reason {
		t.Fatalf("t%d.op%d %s: ref abort (%s, blocker %d) subj abort (%s, blocker %d)",
			id, opIdx, what, ca.Reason, ca.Blocker, sa.Reason, sa.Blocker)
	}
}

// assertPairEquiv runs the workload through the pair and checks final
// stores, durable watermarks and D-serializability of the committed log.
func assertPairEquiv(t *testing.T, pair *equivPair, wcfg workload.Config, seed int64) {
	t.Helper()
	wcfg.Seed = seed
	log := runEquivWorkload(t, pair, wcfg.Generate(), seed*977)
	cs, ss := pair.rstore.State(), pair.store.State()
	if !reflect.DeepEqual(cs.Data, ss.Data) {
		t.Fatalf("final stores differ:\nref  %v\nsubj %v", cs.Data, ss.Data)
	}
	if !reflect.DeepEqual(cs.ItemVers, ss.ItemVers) || cs.Version != ss.Version {
		t.Fatalf("store versions differ: ref v%d %v, subj v%d %v",
			cs.Version, cs.ItemVers, ss.Version, ss.ItemVers)
	}
	// Protocol-level parity: the durable counter watermarks every
	// engine-backed adapter exports must agree.
	cl, cu := pair.ref.(sched.DurableCounters).WALCounters()
	sl, su := pair.subj.(sched.DurableCounters).WALCounters()
	if cl != sl || cu != su {
		t.Fatalf("watermarks: ref (%d,%d) subj (%d,%d)", cl, cu, sl, su)
	}
	// Every committed log must be DSR (serializable in the paper's
	// D-serializability sense, checked via the internal/graph
	// dependency machinery).
	if !classify.DSR(log) {
		t.Fatalf("committed log is not DSR: %v", log)
	}
}

func equivWorkloads() map[string]workload.Config {
	return map[string]workload.Config{
		"uniform":   {Txns: 24, OpsPerTxn: 4, Items: 64, ReadFraction: 0.6},
		"contended": {Txns: 24, OpsPerTxn: 4, Items: 4, ReadFraction: 0.5},
		"zipf":      {Txns: 24, OpsPerTxn: 3, Items: 32, ReadFraction: 0.5, ZipfS: 1.4},
		"hotspot":   {Txns: 20, OpsPerTxn: 4, Items: 32, HotItems: 2, HotFraction: 0.6, ReadFraction: 0.5},
		"twostep":   {Txns: 30, Items: 16, TwoStep: true},
	}
}

// TestStripedEquivalence is the MT(k) differential suite: for every
// protocol variant × workload × seed, the striped adapter must produce
// exactly the reference adapter's behaviour, the two stores must end
// identical, and the committed log must be DSR.
func TestStripedEquivalence(t *testing.T) {
	variants := map[string]sched.MTOptions{
		"k2-immediate":    {Core: engine.Options{K: 2}},
		"k2-deferred":     {Core: engine.Options{K: 2}, DeferWrites: true},
		"k3-immediate":    {Core: engine.Options{K: 3, StarvationAvoidance: true}},
		"k3-deferred":     {Core: engine.Options{K: 3, ThomasWriteRule: true, StarvationAvoidance: true}, DeferWrites: true},
		"k1-deferred":     {Core: engine.Options{K: 1}, DeferWrites: true},
		"k2-hot-deferred": {Core: engine.Options{K: 2, HotThreshold: 4}, DeferWrites: true},
	}
	for vname, opts := range variants {
		for wname, wcfg := range equivWorkloads() {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", vname, wname, seed)
				t.Run(name, func(t *testing.T) {
					assertPairEquiv(t, newMTPair(opts), wcfg, seed)
				})
			}
		}
	}
}

// TestEngineVariantEquivalence extends the differential matrix to the
// other engine-backed families: the MT(k1,k2) nested adapter, the
// MT(k⁺) composite and the DMT(k) cluster, each coarse-reference vs
// striped-subject, over the full workload × seed grid.
func TestEngineVariantEquivalence(t *testing.T) {
	pairs := map[string]func() *equivPair{
		"nested-k2k2": func() *equivPair {
			unit := func(txn, lvl int) int { return txn % 3 }
			return newPair(func(s *storage.Store) sched.Scheduler {
				return sched.NewNested(s, sched.NestedOptions{Ks: []int{2, 2}, UnitOf: unit})
			}, true)
		},
		"composite-k3": func() *equivPair {
			return newPair(func(s *storage.Store) sched.Scheduler {
				return sched.NewComposite(s, 3, engine.Options{})
			}, true)
		},
		"dmt-k2-3sites": func() *equivPair {
			return newPair(func(s *storage.Store) sched.Scheduler {
				return sched.NewDMT(s, dmt.Options{K: 2, Sites: 3})
			}, false)
		},
	}
	for pname, mk := range pairs {
		for wname, wcfg := range equivWorkloads() {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", pname, wname, seed)
				t.Run(name, func(t *testing.T) {
					assertPairEquiv(t, mk(), wcfg, seed)
				})
			}
		}
	}
}
