package engine

import "unsafe"

// Result memory accounting. A session's result lives in its arena — the
// built template relations, a pending Selection's vector, row plans and
// kept uncertain rows with the bitmap that ranked them, plus the
// adopted/composed components — and the
// serving layer budgets that memory per session and globally
// (internal/server). MemUsage is an
// estimate of the retained bytes, not a malloc-accurate count: it charges
// the backing arrays (columns, selection vectors, row plans, component
// value rows, bitsets) and a flat per-entry overhead for the maps, which is
// where essentially all of a large result's memory sits. The snapshot
// columns a Selection reads are not charged: the arena pins its snapshot
// whatever it holds. The estimate is deliberately cheap (one pass over
// headers, no allocation) so admission control can run it on every
// request.

// mapEntryOverhead approximates the per-entry cost of the arena's bookkeeping
// maps (bucket slot, key and value words).
const mapEntryOverhead = 48

// MemUsage returns the approximate retained bytes of the arena's session
// state: result relations, adopted and composed components, and the
// field-index overlays. Snapshot data shared with the store is not charged —
// it exists once regardless of how many sessions read it.
//
//maybms:unguarded runs inside Guard.Check's own memory hook; ticking here would recurse
func (a *Arena) MemUsage() int64 {
	if a == nil {
		return 0
	}
	var n int64
	for _, r := range a.rels {
		if r == nil {
			continue
		}
		for _, c := range r.Cols {
			n += int64(cap(c)) * 4
		}
		n += int64(cap(r.unc.rows)+cap(r.unc.off))*4 + int64(cap(r.unc.attrs))*2
	}
	for _, c := range a.comps {
		if c == nil {
			continue
		}
		n += int64(cap(c.Fields)) * 12 // FieldID: rel, row int32 + attr uint16, padded
		for _, row := range c.Rows {
			n += int64(cap(row.Vals))*4 + int64(len(row.Absent))*8 + 16
		}
		n += int64(len(c.pos)) * mapEntryOverhead
	}
	if v := a.pending; v != nil {
		n += int64(cap(v.sel)+cap(v.carriers))*4 + int64(cap(v.cols))*24
		n += int64(cap(v.plans)) * int64(unsafe.Sizeof(urow{}))
	}
	n += int64(cap(a.attrBuf))*2 + int64(cap(a.decBuf))*int64(unsafe.Sizeof(decision{})) + int64(cap(a.refs))*int64(unsafe.Sizeof(urow{}))
	n += int64(cap(a.keptBuf))*int64(unsafe.Sizeof(keptRow{})) + int64(cap(a.rankBits))*8 + int64(cap(a.rankCnt))*4
	n += int64(len(a.fieldComp)+len(a.relID)+len(a.origins)+len(a.shadowed)+len(a.dirty)) * mapEntryOverhead
	return n
}
