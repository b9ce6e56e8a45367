package engine

import (
	"errors"
	"fmt"
	"slices"

	"maybms/internal/relation"
)

// ErrInconsistent is returned when no world satisfies the dependencies.
var ErrInconsistent = errors.New("engine: world-set is inconsistent with the dependencies")

// Atom is the comparison Attr θ C of an equality-generating dependency.
type Atom struct {
	Attr  string
	Theta relation.Op
	C     int32
}

func (a Atom) String() string { return fmt.Sprintf("%s%s%d", a.Attr, a.Theta, a.C) }

// EGD is a single-tuple equality-generating dependency
// Premise₁ ∧ ... ∧ Premiseₘ ⇒ Conclusion (Section 8), the dependency class
// of the census cleaning constraints (Figure 25).
type EGD struct {
	Premise    []Atom
	Conclusion Atom
}

func (d EGD) String() string {
	out := ""
	for i, a := range d.Premise {
		if i > 0 {
			out += " ∧ "
		}
		out += a.String()
	}
	return out + " ⇒ " + d.Conclusion.String()
}

// HoldsRow reports whether the dependency holds for a fully certain row.
func (d EGD) HoldsRow(get func(attr string) (int32, error)) (bool, error) {
	for _, a := range d.Premise {
		v, err := get(a.Attr)
		if err != nil {
			return false, err
		}
		if !applyOp(a.Theta, v, a.C) {
			return true, nil
		}
	}
	v, err := get(d.Conclusion.Attr)
	if err != nil {
		return false, err
	}
	return applyOp(d.Conclusion.Theta, v, d.Conclusion.C), nil
}

// ChaseEGDs enforces the dependencies on relation rel (the chase of
// Figure 24 restricted to single-tuple EGDs, on the uniform encoding):
// local worlds in which a present tuple violates a dependency are removed
// and the surviving probabilities renormalized. A certain violating tuple —
// or a component running empty — makes the world-set inconsistent.
//
// One pass over dependencies and rows suffices: removing local worlds can
// not introduce new violations (Section 8).
func (s *Store) ChaseEGDs(rel string, deps []EGD) error {
	return s.ChaseEGDsOpt(rel, deps, ChaseOptions{})
}

// ChaseEGDsRefined is the chase with the full Section 8 refinement: only
// components of uncertain fields are composed; certain fields keep their
// template entries and the violation test reads them from the template.
// Same semantics as ChaseEGDs, smaller decompositions, fewer compositions.
func (s *Store) ChaseEGDsRefined(rel string, deps []EGD) error {
	return s.ChaseEGDsOpt(rel, deps, ChaseOptions{Refined: true})
}

// ChaseOptions tune the chase implementation without changing its
// semantics on clean-template inputs.
type ChaseOptions struct {
	// Refined applies the full Section 8 refinement (compose only the
	// components of uncertain fields).
	Refined bool
	// AssumeClean skips the certain-tuple violation scan and visits only
	// rows carrying placeholders, making the chase cost proportional to the
	// number of or-sets rather than the relation size — the paper's setting,
	// where the underlying census data satisfies the dependencies. If a
	// certain tuple does violate a dependency, AssumeClean silently keeps
	// it; use the default full scan to detect global inconsistency.
	AssumeClean bool
}

// ChaseEGDsOpt is ChaseEGDs with explicit options. The relation and the
// components the chase changes are replaced, not edited, so live snapshots
// keep the unchased state — and an error leaves the dependencies enforced on
// the rows visited before it: Rollback to a snapshot taken before the call
// restores the store.
func (s *Store) ChaseEGDsOpt(rel string, deps []EGD, opt ChaseOptions) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detachLocked()
	return s.chaseEGDs(rel, deps, opt)
}

// fieldHasAbsence reports whether field f is absent in some local world.
func (s *Store) fieldHasAbsence(f FieldID) bool {
	c := s.ComponentOf(f)
	if c == nil {
		return false
	}
	return compFieldHasAbsence(c, f)
}

// fieldValues returns the present values of an uncertain field.
func (s *Store) fieldValues(f FieldID) []int32 {
	c := s.ComponentOf(f)
	if c == nil {
		return nil
	}
	return compFieldValues(c, f)
}

func (s *Store) chaseEGDs(rel string, deps []EGD, opt ChaseOptions) error {
	r := s.Rel(rel)
	if r == nil {
		return fmt.Errorf("engine: unknown relation %q", rel)
	}
	for _, d := range deps {
		idx := make(map[string]uint16, len(d.Premise)+1)
		add := func(attr string) error {
			ai, err := r.AttrIndex(attr)
			if err != nil {
				return err
			}
			idx[attr] = ai
			return nil
		}
		for _, a := range d.Premise {
			if err := add(a.Attr); err != nil {
				return err
			}
		}
		if err := add(d.Conclusion.Attr); err != nil {
			return err
		}
		if err := s.chaseOne(r.id, d, idx, opt); err != nil {
			return err
		}
	}
	return nil
}

//maybms:unguarded chase runs on the update path (INSERT repair) under the store lock, fail-fast bounded by MaxCompRows
func (s *Store) chaseOne(rel int32, d EGD, idx map[string]uint16, opt ChaseOptions) error {
	r := s.rels[rel] // the current object: an earlier dependency may have replaced it
	rows := chaseRows(r, idx, opt)
	// The dependency's attributes in ascending order: the order fields are
	// materialized and composed in reaches component ids and field lists.
	attrs := make([]uint16, 0, len(idx))
	for _, ai := range idx {
		attrs = append(attrs, ai)
	}
	slices.Sort(attrs)
	// The cells materialized below are indexed in one merge on the way out:
	// one insert each would shift the index per cell.
	var marked placeholderCells
	defer func() {
		if len(marked) > 0 {
			r.unc = r.unc.with(marked)
		}
	}()
	for _, row := range rows {
		i := int(row)
		// Partition the dependency's attributes into certain and uncertain.
		var uncFields []FieldID
		uncAttr := make(map[uint16]bool)
		for _, ai := range attrs {
			if r.Cols[ai][i] == Placeholder {
				f := FieldID{Rel: r.id, Row: row, Attr: ai}
				uncAttr[ai] = true
				uncFields = append(uncFields, f)
			}
		}
		if len(uncFields) == 0 {
			ok, err := d.HoldsRow(func(attr string) (int32, error) {
				return r.Cols[idx[attr]][i], nil
			})
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("%w: certain tuple %d violates %v", ErrInconsistent, i, d)
			}
			continue
		}
		// Cheap possibility check before composing (Section 8 refinement):
		// skip when some premise atom can never hold or the conclusion can
		// never fail.
		if !s.egdPossiblyViolated(r, row, d, idx) {
			continue
		}
		// Figure 24 composes the components of every attribute of the
		// dependency; certain fields enter as fresh single-value components.
		// (Figure 27's measurements imply this non-refined behaviour:
		// #comp>1 tracks ≈1% of the or-sets at every density, which only
		// composition with certain partners produces.)
		if !opt.Refined {
			for _, ai := range attrs {
				if v := r.Cols[ai][i]; v != Placeholder {
					f := FieldID{Rel: r.id, Row: row, Attr: ai}
					s.newComponent([]FieldID{f}).Rows = []CompRow{{Vals: []int32{v}, P: 1}}
					r = s.markUncertain(r, row, ai)
					marked.note(int(row), int(ai))
					uncAttr[ai] = true
					uncFields = append(uncFields, f)
				}
			}
		}
		// Fields of this tuple that record absence must join the composed
		// component: a dependency holds vacuously for absent tuples.
		var presenceFields []FieldID
		for _, a := range r.unc.of(row) {
			if uncAttr[a] {
				continue
			}
			f := FieldID{Rel: r.id, Row: row, Attr: a}
			if r.absence && s.fieldHasAbsence(f) {
				presenceFields = append(presenceFields, f)
			}
		}
		comp, err := s.mergeComps(append(append([]FieldID{}, uncFields...), presenceFields...)...)
		if err != nil {
			return err
		}
		cols := make(map[uint16]int, len(uncFields))
		for _, f := range uncFields {
			cols[f.Attr] = comp.Pos(f)
		}
		presenceCols := make([]int, 0, len(uncFields)+len(presenceFields))
		for _, c := range cols {
			presenceCols = append(presenceCols, c)
		}
		for _, f := range presenceFields {
			presenceCols = append(presenceCols, comp.Pos(f))
		}
		// Until a local world is removed the component is only read; the
		// first removal makes it writable, and the survivors are compacted
		// over the copy's own rows.
		var kept []CompRow
		removed := false
		for w := 0; w < len(comp.Rows); w++ {
			crow := &comp.Rows[w]
			// An absent tuple satisfies every dependency vacuously.
			present := true
			for _, c := range presenceCols {
				if crow.IsAbsent(c) {
					present = false
					break
				}
			}
			violated := false
			if present {
				get := func(ai uint16) int32 {
					if c, ok := cols[ai]; ok {
						return crow.Vals[c]
					}
					return r.Cols[ai][i]
				}
				violated = true
				for _, a := range d.Premise {
					if !applyOp(a.Theta, get(idx[a.Attr]), a.C) {
						violated = false
						break
					}
				}
				if violated {
					violated = !applyOp(d.Conclusion.Theta, get(idx[d.Conclusion.Attr]), d.Conclusion.C)
				}
			}
			if violated {
				if !removed {
					removed = true
					comp = s.ownComp(comp)
					kept = comp.Rows[:w]
				}
				continue
			}
			if removed {
				kept = append(kept, *crow)
			}
		}
		if !removed {
			continue
		}
		comp.Rows = kept
		if len(comp.Rows) == 0 {
			return fmt.Errorf("%w: no value combination for tuple %d satisfies %v", ErrInconsistent, i, d)
		}
		if !renormalize(comp) {
			return fmt.Errorf("%w: zero probability mass left for tuple %d", ErrInconsistent, i)
		}
	}
	return nil
}

// chaseRows returns the rows chaseOne must visit, in increasing order: all
// rows for the full scan, or only the placeholder-carrying rows when the
// caller vouches the certain data is clean.
func chaseRows(r *Relation, idx map[string]uint16, opt ChaseOptions) []int32 {
	if !opt.AssumeClean {
		out := make([]int32, r.NumRows())
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	var out []int32
	for i, row := range r.unc.rows {
		for _, a := range r.unc.at(i) {
			relevant := false
			for _, ai := range idx {
				if ai == a {
					relevant = true
					break
				}
			}
			if relevant {
				out = append(out, row)
				break
			}
		}
	}
	return out
}

// egdPossiblyViolated checks whether the dependency can be violated by some
// combination of possible values of row's fields.
func (s *Store) egdPossiblyViolated(r *Relation, row int32, d EGD, idx map[string]uint16) bool {
	someValue := func(attr string, pred func(int32) bool) bool {
		ai := idx[attr]
		v := r.Cols[ai][row]
		if v != Placeholder {
			return pred(v)
		}
		for _, pv := range s.fieldValues(FieldID{Rel: r.id, Row: row, Attr: ai}) {
			if pred(pv) {
				return true
			}
		}
		return false
	}
	for _, a := range d.Premise {
		at := a
		if !someValue(at.Attr, func(v int32) bool { return applyOp(at.Theta, v, at.C) }) {
			return false
		}
	}
	c := d.Conclusion
	return someValue(c.Attr, func(v int32) bool { return !applyOp(c.Theta, v, c.C) })
}
