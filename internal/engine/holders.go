package engine

import (
	"slices"

	"repro/internal/intern"
)

// Holders is the RT(x)/WT(x) index of Algorithm 1 for the
// caller-serialized protocols, over dense interned item ids, together
// with the pin counts that decide when a vector's storage can go
// (implementation issue (b)): a transaction holds one pin per RT or WT
// slot it occupies, and its vector is dropped from the table once it
// has finished and holds none — no later conflict test can name it.
// The MT(k) Scheduler and the transaction level of MT(k1,…,kl) share
// it, so there is one reclamation rule.
type Holders struct {
	tab   *VectorTable
	items []holderPair // by item id
	pins  map[int]int  // #slots for which txn is RT or WT
	done  map[int]bool // finished transactions awaiting unpin
	// OnDrop, when non-nil, observes every reclaimed vector, so a caller
	// can drop what it keeps per vector alongside it.
	OnDrop func(txn int)
}

// holderPair is RT(x) and WT(x); 0 is the virtual transaction T_0.
type holderPair struct{ rt, wt int }

// NewHolders returns an empty index (RT(x) = WT(x) = 0 for every x)
// reclaiming vectors from tab.
func NewHolders(tab *VectorTable) *Holders {
	return &Holders{tab: tab, pins: make(map[int]int), done: make(map[int]bool)}
}

// Of returns RT(x) and WT(x) for the item with the given id.
func (h *Holders) Of(id int32) (rt, wt int) {
	if int(id) >= len(h.items) {
		return 0, 0
	}
	return h.items[id].rt, h.items[id].wt
}

// SetRT makes txn the most recent reader of the item.
func (h *Holders) SetRT(id int32, txn int) {
	h.items = cover(h.items, id)
	h.repin(&h.items[id].rt, txn)
}

// SetWT makes txn the most recent writer of the item.
func (h *Holders) SetWT(id int32, txn int) {
	h.items = cover(h.items, id)
	h.repin(&h.items[id].wt, txn)
}

// repin moves one RT or WT slot to txn and unpins the previous holder,
// reclaiming its vector if it was finished and this was its last slot.
func (h *Holders) repin(slot *int, txn int) {
	old := *slot
	if old == txn {
		return
	}
	*slot = txn
	h.pins[txn]++
	if old != 0 {
		h.pins[old]--
		h.maybeReclaim(old)
	}
}

// Live marks txn unfinished: a transaction issuing operations is live,
// and a restarted incarnation after Abort reactivates its vector.
func (h *Holders) Live(txn int) { delete(h.done, txn) }

// Finish marks txn committed or aborted; its vector is reclaimed as
// soon as it stops being a most-recent read or write timestamp.
func (h *Holders) Finish(txn int) {
	if txn == 0 {
		return
	}
	h.done[txn] = true
	h.maybeReclaim(txn)
}

func (h *Holders) maybeReclaim(txn int) {
	if h.done[txn] && h.pins[txn] <= 0 {
		h.tab.Drop(txn)
		delete(h.pins, txn)
		delete(h.done, txn)
		if h.OnDrop != nil {
			h.OnDrop(txn)
		}
	}
}

// hotIDs resolves Options.HotItems to a by-id table, once, at
// construction: the step path then tests a slice element instead of
// hashing the item's name. Names are interned in sorted order so the
// ids a fresh table hands out do not depend on map iteration.
func hotIDs(hot map[string]bool, names *intern.Table) []bool {
	var items []string
	for x, on := range hot {
		if on {
			items = append(items, x)
		}
	}
	slices.Sort(items)
	var out []bool
	for _, x := range items {
		id := names.ID(x)
		out = cover(out, id)
		out[id] = true
	}
	return out
}

// cover returns s extended with zero elements so that index id is
// valid. Capacity doubles from at least 8, so dense ids arriving in
// order cost amortized O(1) and a handful of items one allocation; the
// spare capacity is never written before it is exposed, so it is zero.
func cover[T any](s []T, id int32) []T {
	n := int(id) + 1
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		grown := make([]T, len(s), max(n, 2*cap(s), 8))
		copy(grown, s)
		s = grown
	}
	return s[:n]
}
