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
}

// Nested is the hierarchical MT(k1, ..., kl) protocol at runtime
// (deferred writes: the protocol table has no abort/reseed machinery,
// so WT(x) must only ever name committed transactions), under the
// shared adapter.
type Nested struct {
	*adapter
	proto *nested.Scheduler
	opts  NestedOptions
}

// NewNested returns an MT(k1, ..., kl) runtime scheduler over the store.
func NewNested(store *storage.Store, opts NestedOptions) *Nested {
	p := opts.protocol(store)
	return &Nested{newSerialAdapter(store, opts.family(""), p), p, opts}
}

// reference implements referencer.
func (n *Nested) reference(store *storage.Store) *MT {
	return newReference(store, n.opts.family("/coarse"), n.opts.protocol(store))
}

func (o NestedOptions) protocol(store *storage.Store) *nested.Scheduler {
	return nested.NewSchedulerInterned(nested.Options{Ks: o.Ks, UnitOf: o.UnitOf}, store.Interner())
}

func (o NestedOptions) family(variant string) family {
	ks := make([]string, len(o.Ks))
	for i, k := range o.Ks {
		ks[i] = strconv.Itoa(k)
	}
	return family{name: "MT(" + strings.Join(ks, ",") + ")" + variant, deferred: true}
}

// Protocol exposes the underlying hierarchical scheduler (tests,
// diagnostics); it is unsynchronised, so quiesce before inspecting.
func (n *Nested) Protocol() *nested.Scheduler { return n.proto }
