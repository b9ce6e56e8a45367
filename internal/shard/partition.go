// Package shard partitions a world-set store into N independent sub-stores
// keyed by component connectivity, so that the confidence fold of a
// distributable CONF()/POSSIBLE/CERTAIN plan runs across them in parallel
// (plain queries read the authority snapshot).
//
// The partitioning invariant: a component never spans two shards. The
// world-set decomposition is a product of independent factors, so the store
// splits along exactly the seams the paper's representation already has —
// union-find over field↔component edges groups template rows into
// connectivity units, every unit lands whole on one shard, and components
// follow their rows. Per-shard answers then compose by the product rule
// with no cross-shard correlation, which is what keeps CONF/POSSIBLE/CERTAIN
// exact (see docs/sharding.md for the proof sketch).
package shard

import (
	"fmt"
	"math"
	"sort"

	"maybms/internal/engine"
)

// partition is the computed assignment of every template row to a shard,
// with the order-preserving local renumbering that builds the sub-stores.
// It is a pure function of the authority's state: no input but the
// snapshot's relations and components, no dependence on component order.
type partition struct {
	n int
	// rowShard[rel][row] is the shard owning the row; localRow[rel][row] its
	// row index inside that shard's copy of the relation. Renumbering is
	// order-preserving per (relation, shard): global row order is kept, so
	// the tuple-level view's composition and marginalization orders — and
	// therefore every per-group probability mass — are bit-identical to the
	// unsharded store's.
	rowShard [][]int32
	localRow [][]int32
}

// computePartition groups rows into connectivity units and places each unit
// by a unit-local rule: a unit lives on shard (row mod n) of its minimal
// (rel, row) member. A row no component touches is its own unit, so it never
// moves; a commit moves exactly the rows whose unit's minimal member
// changed — the rows it linked to an earlier unit. (A least-loaded deal
// balances skewed multi-row units better, but one extra row in an early unit
// re-deals every later one, so no layout would survive a commit.)
//
// Union-find runs on one dense array over all rows in (rel, row) order,
// linking the larger root under the smaller, so a unit's root is its minimal
// member and rows without component fields stay their own roots untouched.
// Only rowShard is filled in; renumber derives localRow per relation.
func computePartition(sn *engine.Snapshot, n int) (*partition, error) {
	slots := sn.NumRelSlots()
	base := make([]int, slots+1)
	for ri := 0; ri < slots; ri++ {
		base[ri+1] = base[ri]
		if r := sn.RelByID(int32(ri)); r != nil {
			base[ri+1] += r.NumRows()
		}
	}
	total := base[slots]
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("shard: %d template rows exceed the partitioner's 32-bit row index", total)
	}
	parent := make([]int32, total)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	sn.EachComp(func(c *engine.Component) {
		a := find(int32(base[c.Fields[0].Rel]) + c.Fields[0].Row)
		for _, f := range c.Fields[1:] {
			b := find(int32(base[f.Rel]) + f.Row)
			if b < a {
				a, b = b, a
			}
			parent[b] = a
		}
	})
	// One pass in (rel, row) order: a root takes row mod n (carried as a
	// wrapping counter), any other row its root's shard — already decided,
	// the root being the unit's minimal member.
	shard := make([]int32, total)
	p := &partition{n: n, rowShard: make([][]int32, slots), localRow: make([][]int32, slots)}
	for ri := 0; ri < slots; ri++ {
		if sn.RelByID(int32(ri)) == nil {
			continue
		}
		lo, hi := base[ri], base[ri+1]
		k := int32(0)
		for x := int32(lo); x < int32(hi); x++ {
			if root := find(x); root != x {
				shard[x] = shard[root]
			} else {
				shard[x] = k
			}
			if k++; k == int32(n) {
				k = 0
			}
		}
		p.rowShard[ri] = shard[lo:hi:hi]
	}
	return p, nil
}

// renumber fills localRow[ri] from rowShard[ri] and returns, per shard, the
// ascending global rows it owns of the relation.
func (p *partition) renumber(ri int) [][]int32 {
	owner := p.rowShard[ri]
	local := make([]int32, len(owner))
	rows := make([][]int32, p.n)
	for k := range rows {
		rows[k] = make([]int32, 0, len(owner)/p.n+1)
	}
	for row, k := range owner {
		local[row] = int32(len(rows[k]))
		rows[k] = append(rows[k], int32(row))
	}
	p.localRow[ri] = local
	return rows
}

// sortedCompIDs returns the component ids of a state in ascending order
// (already sorted on export; re-sorted defensively for validation).
func sortedCompIDs(st *engine.StoreState) []int32 {
	ids := make([]int32, len(st.Comps))
	for i, cs := range st.Comps {
		ids[i] = cs.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
