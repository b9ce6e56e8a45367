package engine

import "fmt"

// This file is the engine half of the shard re-balance: building a store
// that holds a row subset of a snapshot, out of objects a previous such
// store already holds wherever the caller knows them unchanged. Relations
// and components carry private derived indexes, so assembling them is the
// engine's job; deciding what goes where (and what is unchanged) is the
// caller's (internal/shard).

// Derivation describes one derived store. Relation ids stay aligned with the
// source snapshot: Rels is indexed by source relation id and must cover every
// live one. Comps lists the source components the derived store holds, in any
// order.
type Derivation struct {
	Rels  []DerivedRel
	Comps []DerivedComp
}

// DerivedRel says how the derived store gets its copy of one relation: the
// previous derivation's object for the same id (Keep), or a fresh copy of
// the source's Rows — ascending source row indexes, renumbered densely in
// that order.
type DerivedRel struct {
	Keep bool
	Rows []int32
}

// DerivedComp names one source component. Nil Fields reuses the previous
// derivation's component of that id; otherwise Fields is the source
// component's field list renumbered to the derived store's rows, and the
// copy shares the source's local worlds (read-only).
type DerivedComp struct {
	ID     int32
	Fields []FieldID
}

// DeriveStore builds the store d describes over src. prev is a snapshot of
// the store a previous derivation of the same source produced (nil when d
// keeps nothing); kept objects are shared with it, which is safe because
// derived stores are never mutated. Every fresh relation and component is
// validated against the assembled store — kept ones were when they were
// built — so a wrong renumbering errors out here instead of inside an
// operator.
func DeriveStore(src, prev *Snapshot, d Derivation) (*Store, error) {
	e := new(epoch)
	s := &Store{
		epoch:    e,
		detached: e,
		rels:     make([]*Relation, len(src.rels)),
		relID:    make(map[string]int32, len(src.relID)),
		idx:      new(compIndex),
	}
	var freshRels []*Relation
	for id, r := range src.rels {
		if r == nil {
			continue
		}
		if id >= len(d.Rels) {
			return nil, fmt.Errorf("engine: derive: no entry for relation %q", r.Name)
		}
		var nr *Relation
		if d.Rels[id].Keep {
			if prev != nil {
				nr = prev.RelByID(int32(id))
			}
			if nr == nil || nr.Name != r.Name {
				return nil, fmt.Errorf("engine: derive: nothing to keep for relation %q", r.Name)
			}
		} else {
			var err error
			if nr, err = sliceRelation(r, d.Rels[id].Rows); err != nil {
				return nil, err
			}
			freshRels = append(freshRels, nr)
		}
		s.rels[id] = nr
		s.relID[nr.Name] = int32(id)
	}
	var fresh []*Component
	fields := 0
	for _, dc := range d.Comps {
		var c *Component
		if dc.Fields == nil {
			if prev != nil {
				c = prev.CompByID(dc.ID)
			}
			if c == nil {
				return nil, fmt.Errorf("engine: derive: nothing to keep for component %d", dc.ID)
			}
		} else {
			sc := src.idx.comp(dc.ID)
			if sc == nil || len(dc.Fields) != len(sc.Fields) {
				return nil, fmt.Errorf("engine: derive: component %d does not match the source", dc.ID)
			}
			c = &Component{ID: dc.ID, Fields: dc.Fields, Rows: sc.Rows, pos: make(map[FieldID]int, len(dc.Fields))}
			for i, f := range dc.Fields {
				c.pos[f] = i
			}
			fresh = append(fresh, c)
		}
		s.idx.putComp(e, c)
		for _, f := range c.Fields {
			s.idx.putField(e, f, c.ID)
		}
		fields += len(c.Fields)
	}
	// Counting catches what per-entry duplicate probes would: an id listed
	// twice, or a field claimed by two components, leaves the index short.
	if s.idx.ncomps != len(d.Comps) || s.idx.nfields != fields {
		return nil, fmt.Errorf("engine: derive: duplicate component id or field (%d/%d components, %d/%d fields)",
			s.idx.ncomps, len(d.Comps), s.idx.nfields, fields)
	}
	for _, c := range fresh {
		if err := s.validateComp(c, probTolerance); err != nil {
			return nil, fmt.Errorf("engine: derive: %w", err)
		}
	}
	for _, r := range freshRels {
		if err := s.validateRel(r); err != nil {
			return nil, fmt.Errorf("engine: derive: %w", err)
		}
	}
	s.nextCID, s.scratchSeq = src.nextCID, src.scratchSeq
	return s, nil
}

// sliceRelation copies the given rows of r (ascending) into a new relation
// with the same id, re-deriving the uncertainty index from the copied cells.
func sliceRelation(r *Relation, rows []int32) (*Relation, error) {
	n := r.NumRows()
	for i, row := range rows {
		if row < 0 || int(row) >= n || (i > 0 && row <= rows[i-1]) {
			return nil, fmt.Errorf("engine: derive: relation %q row list is not an ascending subset of its %d rows", r.Name, n)
		}
	}
	nr := &Relation{id: r.id, Name: r.Name, Attrs: r.Attrs, Cols: make([][]int32, len(r.Cols)), absence: r.absence, posts: newPostSlots(len(r.Cols))}
	var cells placeholderCells
	// One allocation per column, as everywhere else in the engine: carving
	// the columns out of one array measured ≈ 15% slower on conf_fold (under
	// the row-major gather operators used then), for 50 fewer allocations.
	for a, col := range r.Cols {
		kept := make([]int32, len(rows))
		for i, row := range rows {
			v := col[row]
			kept[i] = v
			if v == Placeholder {
				cells.note(i, a)
			}
		}
		nr.Cols[a] = kept
	}
	nr.unc = new(uncIndex).with(cells)
	return nr, nil
}
