package engine

import (
	"fmt"
	"math"
)

// Validate checks store invariants: the component index's own layout,
// field/component index agreement, probability sums, bitmap width, and
// placeholder bookkeeping.
//
//maybms:unguarded debug invariant check, not on any query path
func (s *Store) Validate(eps float64) error {
	if err := s.idx.validate(); err != nil {
		return err
	}
	var err error
	s.idx.eachComp(func(c *Component) {
		if err == nil {
			err = s.validateComp(c, eps)
		}
	})
	if err != nil {
		return err
	}
	s.idx.eachField(func(f FieldID, cid int32) {
		if err != nil {
			return
		}
		if c := s.idx.comp(cid); c == nil {
			err = fmt.Errorf("engine: field %v maps to dead component %d", f, cid)
		} else if c.Pos(f) < 0 {
			err = fmt.Errorf("engine: field %v missing from its component", f)
		}
	})
	if err != nil {
		return err
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
		if cid, _ := s.idx.compOf(f); cid != c.ID {
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
	var total float64
	for _, row := range c.Rows {
		if len(row.Vals) != len(c.Fields) {
			return fmt.Errorf("engine: component %d row arity mismatch", c.ID)
		}
		if row.P < 0 || math.IsNaN(row.P) || math.IsInf(row.P, 0) {
			return fmt.Errorf("engine: component %d has a local world of probability %g", c.ID, row.P)
		}
		total += row.P
	}
	if math.Abs(total-1) > eps {
		return fmt.Errorf("engine: component %d probabilities sum to %g", c.ID, total)
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
			if _, ok := s.idx.compOf(FieldID{Rel: r.id, Row: row, Attr: a}); !ok {
				return fmt.Errorf("engine: %s row %d attr %d has no component", r.Name, row, a)
			}
		}
	}
	return nil
}

// validate checks the index's layout: every entry in the part its key
// hashes to, each part strictly ascending, the counts right, and every
// component registered under its own id.
func (x *compIndex) validate() error {
	n := 0
	for k := range x.comps {
		ents := x.comps[k].ents
		for i, ce := range ents {
			if compPartOf(ce.id) != k || (i > 0 && ents[i-1].id >= ce.id) {
				return fmt.Errorf("engine: component index part %d out of order at id %d", k, ce.id)
			}
			if ce.c == nil || ce.c.ID != ce.id {
				return fmt.Errorf("engine: component id %d indexes another component", ce.id)
			}
		}
		n += len(ents)
	}
	if n != x.ncomps {
		return fmt.Errorf("engine: component index counts %d components, holds %d", x.ncomps, n)
	}
	n = 0
	for k := range x.fields {
		ents := x.fields[k].ents
		for i, fe := range ents {
			if fieldPartOf(fe.f) != k || (i > 0 && !fieldBefore(ents[i-1].f, fe.f)) {
				return fmt.Errorf("engine: field index part %d out of order at field %v", k, fe.f)
			}
		}
		n += len(ents)
	}
	if n != x.nfields {
		return fmt.Errorf("engine: field index counts %d fields, holds %d", x.nfields, n)
	}
	return nil
}
