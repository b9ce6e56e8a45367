package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// This file is the engine half of the persistence contract with
// internal/storage: a flat, exported view of a store's state that a codec
// can serialize without knowing the engine's invariants, and an importer
// that rebuilds a live store from such a view, re-deriving every redundant
// index (field→component map, per-component position maps, per-relation
// uncertainty indexes) and re-checking every invariant — a corrupt or
// hand-crafted state errors out instead of producing a store that fails
// later, deep inside an operator.

// RelState is the flat form of one template relation: just the name, the
// attribute names and the column-major template values (Placeholder marks
// uncertain fields). Everything else about a relation is derived.
type RelState struct {
	Name  string
	Attrs []string
	Cols  [][]int32
}

// CompState is the flat form of one component: its id, field list and local
// worlds. The field→column index is derived from the field order.
type CompState struct {
	ID     int32
	Fields []FieldID
	Rows   []CompRow
}

// StoreState is the flat, exported form of a store, the unit of
// serialization. Rels is indexed by relation id — dropped relations leave
// nil holes, which must be preserved because components reference relations
// by id. Comps is sorted by component id, so serializations of the same
// state are byte-identical.
//
// The slices of an exported state are shared with the live store; treat
// them as read-only.
type StoreState struct {
	Rels       []*RelState
	Comps      []*CompState
	NextCID    int32
	ScratchSeq int64
}

// ExportState flattens the snapshot into a StoreState. The returned state
// shares the snapshot's column and row storage (read-only); it stays valid
// as long as the snapshot does. Everything a snapshot file contains is
// derived from this state, so its layout must be a pure function of the
// store's logical content — byte-identical re-saves depend on it.
//
//maybms:deterministic snapshot bytes and shard fingerprints are derived from this state
func (sn *Snapshot) ExportState() *StoreState {
	st := &StoreState{Rels: make([]*RelState, len(sn.rels))}
	for i, r := range sn.rels {
		if r == nil {
			continue
		}
		st.Rels[i] = &RelState{Name: r.Name, Attrs: r.Attrs, Cols: r.Cols}
	}
	st.Comps = make([]*CompState, 0, sn.idx.ncomps)
	sn.idx.eachComp(func(c *Component) {
		st.Comps = append(st.Comps, &CompState{ID: c.ID, Fields: c.Fields, Rows: c.Rows})
	})
	slices.SortFunc(st.Comps, func(a, b *CompState) int { return cmp.Compare(a.ID, b.ID) })
	st.NextCID, st.ScratchSeq = sn.nextCID, sn.scratchSeq
	return st
}

// ExportState flattens the store's current state (via a snapshot).
func (s *Store) ExportState() *StoreState { return s.Snapshot().ExportState() }

// ImportState rebuilds a live store from a flat state: relations and
// components are installed, the derived indexes (field→component, position
// maps, uncertainty indexes) are reconstructed, and the full invariant set is
// re-validated. The store takes ownership of the state's slices. Any
// inconsistency — dangling field references, duplicate names or ids,
// ragged columns, probabilities that do not sum to one — is an error, so a
// corrupt serialization can never silently become a live store.
func ImportState(st *StoreState) (*Store, error) {
	s := NewStore()
	if st.NextCID < 0 || st.ScratchSeq < 0 {
		return nil, fmt.Errorf("engine: import: negative sequence counters")
	}
	s.nextCID = st.NextCID
	s.scratchSeq = st.ScratchSeq
	s.rels = make([]*Relation, len(st.Rels))
	for i, rs := range st.Rels {
		if rs == nil {
			continue
		}
		if rs.Name == "" {
			return nil, fmt.Errorf("engine: import: relation %d has an empty name", i)
		}
		if _, dup := s.relID[rs.Name]; dup {
			return nil, fmt.Errorf("engine: import: duplicate relation name %q", rs.Name)
		}
		if len(rs.Cols) != len(rs.Attrs) {
			return nil, fmt.Errorf("engine: import: relation %q has %d columns for %d attributes", rs.Name, len(rs.Cols), len(rs.Attrs))
		}
		seen := make(map[string]bool, len(rs.Attrs))
		for _, a := range rs.Attrs {
			if a == "" || seen[a] {
				return nil, fmt.Errorf("engine: import: relation %q has an empty or duplicate attribute", rs.Name)
			}
			seen[a] = true
		}
		r, err := relationOf(int32(i), rs, s.epoch)
		if err != nil {
			return nil, fmt.Errorf("engine: import: %w", err)
		}
		s.relID[rs.Name] = r.id
		s.rels[i] = r
	}
	for _, cs := range st.Comps {
		if cs == nil {
			return nil, fmt.Errorf("engine: import: nil component")
		}
		if cs.ID <= 0 || cs.ID > st.NextCID {
			return nil, fmt.Errorf("engine: import: component id %d outside sequence bound %d", cs.ID, st.NextCID)
		}
		if s.idx.comp(cs.ID) != nil {
			return nil, fmt.Errorf("engine: import: duplicate component id %d", cs.ID)
		}
		if len(cs.Fields) == 0 || len(cs.Fields) > MaxCompFields {
			return nil, fmt.Errorf("engine: import: component %d has %d fields", cs.ID, len(cs.Fields))
		}
		if len(cs.Rows) == 0 {
			return nil, fmt.Errorf("engine: import: component %d has no local worlds", cs.ID)
		}
		c := &Component{ID: cs.ID, Fields: cs.Fields, Rows: cs.Rows, pos: make(map[FieldID]int, len(cs.Fields)), born: s.epoch}
		for i, f := range cs.Fields {
			if _, dup := c.pos[f]; dup {
				return nil, fmt.Errorf("engine: import: component %d lists field %v twice", cs.ID, f)
			}
			c.pos[f] = i
			if !s.idx.putField(s.epoch, f, cs.ID) {
				return nil, fmt.Errorf("engine: import: field %v belongs to two components", f)
			}
		}
		s.idx.putComp(s.epoch, c)
		absent := absentCols(c)
		for i, f := range c.Fields {
			if r := s.RelByID(f.Rel); r != nil && absent.Get(i) {
				r.absence = true
			}
		}
	}
	// Validate re-checks the cross-structure invariants the loops above
	// cannot see locally: every placeholder field backed by a component,
	// every component field pointing at a placeholder cell of a live
	// relation, row arities, probability mass. The tolerance is looser than
	// the test-suite's 1e-9 because serialized probabilities are bit-exact
	// copies of values that were themselves only renormalized to ~1.
	if err := s.Validate(probTolerance); err != nil {
		return nil, fmt.Errorf("engine: import: %w", err)
	}
	return s, nil
}

// relationOf builds the relation object of a flat state under the given id,
// deriving its uncertainty index; ragged columns and values below
// Placeholder are errors.
func relationOf(id int32, rs *RelState, born *epoch) (*Relation, error) {
	r := &Relation{id: id, Name: rs.Name, Attrs: rs.Attrs, Cols: rs.Cols, born: born, posts: newPostSlots(len(rs.Cols))}
	n := r.NumRows()
	var cells placeholderCells
	for a, col := range rs.Cols {
		if len(col) != n {
			return nil, fmt.Errorf("relation %q column %s has %d rows, want %d", rs.Name, rs.Attrs[a], len(col), n)
		}
		for row, v := range col {
			if v < Placeholder {
				return nil, fmt.Errorf("relation %q has invalid value %d", rs.Name, v)
			}
			if v == Placeholder {
				cells.note(row, a)
			}
		}
	}
	r.unc = new(uncIndex).with(cells)
	return r, nil
}

// InstallRelation installs a bulk-loaded relation — a flat RelState plus the
// components backing its placeholder fields — into a live store. Unlike
// ImportState, which builds a fresh store, this grafts onto an existing
// catalog: the relation gets the lowest free id, component ids are remapped
// past the store's sequence, and every field reference is rewritten to the
// new relation id (the components must reference only the installed
// relation). The store takes ownership of the state's slices. All local
// invariants are checked before anything is registered, so a failed install
// leaves the store untouched.
//
//maybms:unguarded recovery/ingest-path validation under the store lock; no query guard exists yet
func (s *Store) InstallRelation(rs *RelState, comps []*CompState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detachLocked()
	if rs == nil || rs.Name == "" {
		return fmt.Errorf("engine: install: empty relation")
	}
	if _, dup := s.relID[rs.Name]; dup {
		return fmt.Errorf("engine: relation %q already exists", rs.Name)
	}
	if len(rs.Cols) != len(rs.Attrs) {
		return fmt.Errorf("engine: install: relation %q has %d columns for %d attributes", rs.Name, len(rs.Cols), len(rs.Attrs))
	}
	relID := s.newRelID()
	r, err := relationOf(relID, rs, s.epoch)
	if err != nil {
		return fmt.Errorf("engine: install: %w", err)
	}
	n := r.NumRows()
	// Check the components against the relation (and each other) before
	// registering anything: the checks mirror ImportState's, scoped to the
	// installed relation. Field Rel values are rewritten to the new id, so a
	// loader built against a single-relation store (Rel 0) installs cleanly.
	placeholders := len(r.unc.attrs)
	covered := make(map[FieldID]bool, placeholders)
	built := make([]*Component, 0, len(comps))
	for i, cs := range comps {
		if cs == nil {
			return fmt.Errorf("engine: install: nil component")
		}
		if len(cs.Fields) == 0 || len(cs.Fields) > MaxCompFields {
			return fmt.Errorf("engine: install: component %d has %d fields", cs.ID, len(cs.Fields))
		}
		if len(cs.Rows) == 0 {
			return fmt.Errorf("engine: install: component %d has no local worlds", cs.ID)
		}
		id := s.nextCID + int32(i) + 1
		c := &Component{ID: id, Fields: make([]FieldID, len(cs.Fields)), Rows: cs.Rows, pos: make(map[FieldID]int, len(cs.Fields)), born: s.epoch}
		var mass float64
		for _, row := range cs.Rows {
			if len(row.Vals) != len(cs.Fields) {
				return fmt.Errorf("engine: install: component %d row has %d values for %d fields", cs.ID, len(row.Vals), len(cs.Fields))
			}
			mass += row.P
		}
		if math.Abs(mass-1) > probTolerance {
			return fmt.Errorf("engine: install: component %d probabilities sum to %g", cs.ID, mass)
		}
		for j, f := range cs.Fields {
			f.Rel = relID
			if f.Row < 0 || int(f.Row) >= n || int(f.Attr) >= len(rs.Attrs) {
				return fmt.Errorf("engine: install: component %d field %v outside relation %q", cs.ID, f, rs.Name)
			}
			if rs.Cols[f.Attr][f.Row] != Placeholder {
				return fmt.Errorf("engine: install: component %d field %v is not a placeholder cell", cs.ID, f)
			}
			if covered[f] {
				return fmt.Errorf("engine: install: field %v belongs to two components", f)
			}
			covered[f] = true
			c.Fields[j] = f
			c.pos[f] = j
		}
		built = append(built, c)
		r.absence = r.absence || absentCols(c).Any()
	}
	if len(covered) != placeholders {
		return fmt.Errorf("engine: install: relation %q has %d placeholder fields but %d component fields", rs.Name, placeholders, len(covered))
	}
	s.setRel(r)
	for _, c := range built {
		s.idx.putComp(s.epoch, c)
		for _, f := range c.Fields {
			s.idx.putField(s.epoch, f, c.ID)
		}
	}
	s.nextCID += int32(len(built))
	return nil
}
