package engine

import "fmt"

// Validate checks store invariants: field/component index agreement,
// probability sums, bitmap width, and placeholder bookkeeping.
//
//maybms:unguarded debug invariant check, not on any query path
func (s *Store) Validate(eps float64) error {
	for cid, c := range s.comps {
		if c.ID != cid {
			return fmt.Errorf("engine: component id mismatch %d vs %d", c.ID, cid)
		}
		if err := s.validateComp(c, eps); err != nil {
			return err
		}
	}
	for f, cid := range s.fieldComp {
		c, ok := s.comps[cid]
		if !ok {
			return fmt.Errorf("engine: field %v maps to dead component %d", f, cid)
		}
		if c.Pos(f) < 0 {
			return fmt.Errorf("engine: field %v missing from its component", f)
		}
	}
	for _, r := range s.rels {
		if r == nil {
			continue
		}
		if err := s.validateRel(r); err != nil {
			return err
		}
	}
	return nil
}

// validateComp checks one registered component against the store: its
// position index, the field→component index, that every field is a
// placeholder cell of a live relation whose absence flag covers the field's
// absent local worlds, row arity and probability mass.
//
//maybms:unguarded invariant check on the update path (import, shard re-balance), bounded by one component
func (s *Store) validateComp(c *Component, eps float64) error {
	if len(c.Fields) > MaxCompFields {
		return fmt.Errorf("engine: component %d has %d fields", c.ID, len(c.Fields))
	}
	absent := absentCols(c)
	for i, f := range c.Fields {
		if c.pos[f] != i {
			return fmt.Errorf("engine: component %d field index broken", c.ID)
		}
		if s.fieldComp[f] != c.ID {
			return fmt.Errorf("engine: field %v maps to wrong component", f)
		}
		r := s.RelByID(f.Rel)
		if r == nil {
			return fmt.Errorf("engine: component %d references dropped relation", c.ID)
		}
		if int(f.Attr) >= len(r.Cols) || f.Row < 0 || int(f.Row) >= r.NumRows() {
			return fmt.Errorf("engine: field %v outside relation %s", f, r.Name)
		}
		if r.Cols[f.Attr][f.Row] != Placeholder {
			return fmt.Errorf("engine: field %v not a placeholder in template", f)
		}
		if absent.Get(i) && !r.absence {
			return fmt.Errorf("engine: field %v is absent in a local world but relation %s records no absence", f, r.Name)
		}
	}
	total := c.TotalP()
	if total < 1-eps || total > 1+eps {
		return fmt.Errorf("engine: component %d probabilities sum to %g", c.ID, total)
	}
	for _, row := range c.Rows {
		if len(row.Vals) != len(c.Fields) {
			return fmt.Errorf("engine: component %d row arity mismatch", c.ID)
		}
	}
	return nil
}

// validateRel checks one relation's uncertainty index against its template
// and the store's field→component index.
func (s *Store) validateRel(r *Relation) error {
	x := &r.unc
	if len(x.rows) > 0 && (len(x.off) != len(x.rows)+1 || x.off[0] != 0 || int(x.off[len(x.rows)]) != len(x.attrs)) {
		return fmt.Errorf("engine: %s uncertainty index is malformed", r.Name)
	}
	for i, row := range x.rows {
		if row < 0 || int(row) >= r.NumRows() || (i > 0 && row <= x.rows[i-1]) || x.off[i+1] <= x.off[i] {
			return fmt.Errorf("engine: %s uncertainty index row %d out of order or range", r.Name, row)
		}
		attrs := x.at(i)
		for k, a := range attrs {
			if int(a) >= len(r.Cols) || (k > 0 && a <= attrs[k-1]) {
				return fmt.Errorf("engine: %s row %d attr %d out of order or range", r.Name, row, a)
			}
			if r.Cols[a][row] != Placeholder {
				return fmt.Errorf("engine: %s row %d attr %d marked uncertain but certain", r.Name, row, a)
			}
			if _, ok := s.fieldComp[FieldID{Rel: r.id, Row: row, Attr: a}]; !ok {
				return fmt.Errorf("engine: %s row %d attr %d has no component", r.Name, row, a)
			}
		}
	}
	return nil
}
