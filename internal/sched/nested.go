package sched

import (
	"strconv"
	"strings"

	"repro/internal/nested"
	"repro/internal/storage"
)

// NestedOptions configures the MT(k1, ..., kl) runtime adapter.
type NestedOptions struct {
	// Ks are the per-level vector sizes (nested.Options.Ks).
	Ks []int
	// UnitOf maps a transaction to its containing unit at each level
	// >= 1 (nested.Options.UnitOf); nil puts every transaction in
	// group 0.
	UnitOf func(txn, lvl int) int
	// Coarse selects the reference lifecycle: every store access runs
	// under the protocol mutex. The default (false) is the production
	// adapter, where item latches let store accesses on disjoint items
	// overlap.
	Coarse bool
}

// Nested is the hierarchical MT(k1, ..., kl) protocol at runtime
// (deferred writes: the protocol table has no abort/reseed machinery,
// so WT(x) must only ever name committed transactions), under the
// shared adapter or, with NestedOptions.Coarse, the coarse reference.
type Nested struct {
	lifecycle
	proto *nested.Scheduler
}

// NewNested returns an MT(k1, ..., kl) runtime scheduler over the store.
func NewNested(store *storage.Store, opts NestedOptions) *Nested {
	p := nested.NewSchedulerInterned(nested.Options{Ks: opts.Ks, UnitOf: opts.UnitOf}, store.Interner())
	ks := make([]string, len(opts.Ks))
	for i, k := range opts.Ks {
		ks[i] = strconv.Itoa(k)
	}
	f := family{name: "MT(" + strings.Join(ks, ",") + ")", deferred: true}
	if opts.Coarse {
		f.name += "/coarse"
		return &Nested{newReference(store, f, p), p}
	}
	return &Nested{newSerialAdapter(store, f, p), p}
}

// Protocol exposes the underlying hierarchical scheduler (tests,
// diagnostics); it is unsynchronised, so quiesce before inspecting.
func (n *Nested) Protocol() *nested.Scheduler { return n.proto }
