package engine

import (
	"fmt"
	"slices"
)

// This file implements selection, projection and renaming on the columnar
// UWSDT store — thin calls into one fused operator, selectProject. The
// rewritten operators follow Section 5: results are new template relations
// whose placeholders share the component space with their inputs, and tuple
// absence is tracked by per-(field, local world) presence — the uniform
// encoding of worlds of different sizes.
//
// The read path is the paper's ordinary relational processing on the
// template plus a small correction for the placeholders: the condition runs
// column-at-a-time over the template into a selection vector, the rows whose
// referenced fields are placeholders — found by walking the relation's
// row-sorted uncertainty index — are decided per local world, and only the
// kept columns are gathered at the surviving rows (arena.go builds results).
//
// Operators are Arena methods: they read base data through the arena's
// snapshot and write result templates and extended component rows into the
// arena, leaving the shared store untouched — which is what lets many
// sessions run SELECTs concurrently.

// Select computes res := σ_p(src). Rows whose referenced fields are certain
// are filtered directly on the template; rows with uncertain referenced
// fields keep one presence bit per local world of the (possibly composed)
// component holding those fields.
func (a *Arena) Select(res, src string, p Pred) (*Relation, error) {
	return a.selectProject(res, src, p, nil)
}

// Project computes res := π_attrs(src), keeping one result row per source
// row (tuple slots; duplicates coincide at decode time). When a dropped
// uncertain field records tuple absence, that absence is propagated into
// the kept fields — composing components when necessary — so deleted tuples
// are not resurrected (the ⊥-propagation of Figure 9 in uniform encoding).
func (a *Arena) Project(res, src string, attrs ...string) (*Relation, error) {
	return a.SelectProject(res, src, nil, attrs...)
}

// SelectProject computes res := π_attrs(σ_p(src)) in one pass (a nil p
// selects every row). The result is Select into a temporary, Project of it
// and dropping the temporary — same template, components and local worlds,
// up to the order of fields within a component — but only the kept columns
// are gathered and only the components of kept and presence-carrying fields
// are adopted.
func (a *Arena) SelectProject(res, src string, p Pred, attrs ...string) (*Relation, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("engine: empty projection")
	}
	return a.selectProject(res, src, p, attrs)
}

// urow is a result row whose source row holds placeholders, with the masks
// the copies of its fields carry.
type urow struct {
	j, src int32
	attrs  []uint16 // the source row's placeholder attributes
	// ref are those the condition reads: the row is decided per local world
	// of their component. inSel are the placeholder attributes sharing that
	// component at the decision — their copies carry the condition — and
	// failing says it fails in some local world.
	ref, inSel []uint16
	failing    bool
	// drop are the dropped attributes whose copies would carry absence; keep
	// is their presence, carried by the kept copies in its component or, when
	// none is kept, by a carrier field.
	drop []uint16
	keep presence
}

// selectProject computes π_attrs(σ_p(src)) as res; nil p selects every row,
// nil attrs keeps every attribute. Compositions happen in the two-step
// order — σ's per row, then π's per surviving row — before any mask is
// evaluated, so local-world indexes stay stable and the components equal the
// two-step ones.
func (a *Arena) selectProject(res, src string, p Pred, attrs []string) (*Relation, error) {
	r := a.Rel(src)
	if r == nil {
		return nil, fmt.Errorf("engine: unknown relation %q", src)
	}
	if a.Rel(res) != nil {
		return nil, fmt.Errorf("engine: relation %q already exists", res)
	}
	order := allAttrs(r)
	if attrs != nil {
		order = make([]uint16, len(attrs))
		for i, at := range attrs {
			ai, err := r.AttrIndex(at)
			if err != nil {
				return nil, err
			}
			if containsAttr(order[:i], ai) {
				return nil, fmt.Errorf("engine: duplicate projection attribute %q", at)
			}
			order[i] = ai
		}
	}
	x := &r.unc
	var cp CompiledPred
	var refs []urow // rows whose condition reads placeholders
	var sel []int32 // surviving source rows, ascending; nil = every row
	if p != nil {
		var err error
		if cp, err = p.Compile(r); err != nil {
			return nil, err
		}
		// σ(AθB) and multi-attribute conditions entangle the components of
		// the placeholders they read: compose them, row by row.
		predAttrs := cp.Attrs()
		for i, row := range x.rows {
			u := urow{src: row, attrs: x.at(i)}
			for _, at := range u.attrs {
				if containsAttr(predAttrs, at) {
					u.ref = append(u.ref, at)
				}
			}
			if u.ref == nil {
				continue
			}
			if err := a.tick(); err != nil {
				return nil, err
			}
			if len(u.ref) > 1 {
				if _, err := a.mergeComps(r.fields(row, u.ref)...); err != nil {
					return nil, err
				}
			}
			refs = append(refs, u)
		}
		// The kernels would decide those rows on their sentinels: decide
		// them per local world (a rejected row keeps inSel nil) for filter
		// to overrule the kernels with.
		for k := range refs {
			u := &refs[k]
			if err := a.tick(); err != nil {
				return nil, err
			}
			// Read, do not adopt: a rejected row never extends its
			// component, and a surviving one adopts it when it does.
			comp := a.ComponentOf(FieldID{Rel: r.id, Row: u.src, Attr: u.ref[0]})
			pass := condMask(r, cp, u.src, u.ref, comp)
			if !slices.Contains(pass, true) {
				continue
			}
			u.failing = slices.Contains(pass, false)
			for _, at := range u.attrs {
				if a.ComponentOf(FieldID{Rel: r.id, Row: u.src, Attr: at}) == comp {
					u.inSel = append(u.inSel, at)
				}
			}
		}
		if sel, err = a.filter(r, cp, refs); err != nil {
			return nil, err
		}
	}

	// The result rows with placeholders: the index rows that survived,
	// found by walking the index against the ascending selection vector.
	rows := make([]urow, 0, survivors(x.rows, sel))
	for i, s, k := 0, 0, 0; i < len(x.rows); i++ {
		row, j := x.rows[i], x.rows[i]
		if sel != nil {
			for s < len(sel) && sel[s] < row {
				s++
			}
			if s == len(sel) {
				break
			}
			if sel[s] != row {
				continue
			}
			j = int32(s)
		}
		u := urow{j: j, src: row, attrs: x.at(i)}
		for k < len(refs) && refs[k].src < row {
			k++
		}
		if k < len(refs) && refs[k].src == row {
			u.ref, u.inSel, u.failing = refs[k].ref, refs[k].inSel, refs[k].failing
		}
		rows = append(rows, u)
	}

	// π's ⊥-propagation: a dropped field carrying absence — its own, or the
	// condition's — joins the component of the row's kept fields.
	if len(order) < len(r.Attrs) {
		for k := range rows {
			u := &rows[k]
			if err := a.tick(); err != nil {
				return nil, err
			}
			for _, at := range u.attrs {
				if !containsAttr(order, at) && ((u.failing && containsAttr(u.inSel, at)) || a.fieldHasAbsence(FieldID{Rel: r.id, Row: u.src, Attr: at})) {
					u.drop = append(u.drop, at)
				}
			}
			if u.drop == nil {
				continue
			}
			fields := r.fields(u.src, u.drop)
			for _, at := range u.attrs {
				if containsAttr(order, at) {
					fields = append(fields, FieldID{Rel: r.id, Row: u.src, Attr: at})
				}
			}
			if _, err := a.mergeComps(fields...); err != nil {
				return nil, err
			}
		}
	}

	out, err := a.gather(res, r, order, sel)
	if err != nil {
		return nil, err
	}
	for k := range rows {
		u := &rows[k]
		if err := a.tick(); err != nil {
			return nil, err
		}
		var cond presence
		if u.ref != nil {
			cond.comp = a.compFor(FieldID{Rel: r.id, Row: u.src, Attr: u.ref[0]})
			cond.pass = condMask(r, cp, u.src, u.ref, cond.comp)
		}
		if u.drop != nil {
			// cond.pass indexes m's local worlds wherever it is read: a
			// dropped inSel field merged the condition's component into m.
			m := a.compFor(FieldID{Rel: r.id, Row: u.src, Attr: u.drop[0]})
			u.keep = presence{comp: m, pass: make([]bool, len(m.Rows))}
			for w, crow := range m.Rows {
				u.keep.pass[w] = true
				for _, at := range u.drop {
					if crow.IsAbsent(m.Pos(FieldID{Rel: r.id, Row: u.src, Attr: at})) || (containsAttr(u.inSel, at) && !cond.pass[w]) {
						u.keep.pass[w] = false
						break
					}
				}
			}
		}
		if err := a.extendRow(out, r, u, order, cond); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// filter runs a compiled condition's column kernels over the template of r,
// a batch of guardPeriod rows at a time, overrules them on the rows of refs
// with their per-local-world decisions, and returns the selection vector of
// the rows kept.
func (a *Arena) filter(r *Relation, cp CompiledPred, refs []urow) ([]int32, error) {
	n := r.NumRows()
	sel := make([]int32, 0, min(n, guardPeriod))
	for lo, k := 0, 0; lo < n; lo += guardPeriod {
		hi := min(lo+guardPeriod, n)
		if err := a.guard.tickN(hi - lo); err != nil {
			return nil, err
		}
		base := len(sel)
		for i := lo; i < hi; i++ {
			sel = append(sel, int32(i))
		}
		sel = sel[:base+len(cp.Filter(r.Cols, sel[base:]))]
		for ; k < len(refs) && int(refs[k].src) < hi; k++ {
			i, kept := slices.BinarySearch(sel[base:], refs[k].src)
			if pass := refs[k].inSel != nil; pass && !kept {
				sel = slices.Insert(sel, base+i, refs[k].src)
			} else if !pass && kept {
				sel = slices.Delete(sel, base+i, base+i+1)
			}
		}
	}
	return sel, nil
}

// survivors counts the rows of idx, ascending, that the ascending
// selection vector sel keeps (nil keeps every row).
func survivors(idx, sel []int32) int {
	if sel == nil {
		return len(idx)
	}
	n := 0
	for i, s := 0, 0; i < len(idx) && s < len(sel); i++ {
		for s < len(sel) && sel[s] < idx[i] {
			s++
		}
		if s < len(sel) && sel[s] == idx[i] {
			n++
		}
	}
	return n
}

// condMask decides the condition on row of r per local world of comp, the
// component of the row's placeholder fields ref: pass[w] when every ref
// field is present at w and the condition holds there.
//
//maybms:unguarded bounded single-component probe; the operator loops that call it tick per row
func condMask(r *Relation, cp CompiledPred, row int32, ref []uint16, comp *Component) []bool {
	pos := make([]int, len(ref))
	for k, at := range ref {
		pos[k] = comp.Pos(FieldID{Rel: r.id, Row: row, Attr: at})
	}
	pass := make([]bool, len(comp.Rows))
	for w := range comp.Rows {
		crow := &comp.Rows[w]
		pass[w] = !slices.ContainsFunc(pos, crow.IsAbsent) && cp.Eval(func(ai uint16) int32 {
			if k := slices.Index(ref, ai); k >= 0 {
				return crow.Vals[pos[k]]
			}
			return r.Cols[ai][row]
		})
	}
	return pass
}

// fieldHasAbsence reports whether field f is absent in some local world.
func (a *Arena) fieldHasAbsence(f FieldID) bool {
	c := a.ComponentOf(f)
	if c == nil {
		return false
	}
	return compFieldHasAbsence(c, f)
}

// compFieldHasAbsence reports whether f is absent in some local world.
//
//maybms:unguarded bounded single-component probe; the planning loops that call it tick per candidate
func compFieldHasAbsence(c *Component, f FieldID) bool {
	col := c.Pos(f)
	for _, r := range c.Rows {
		if r.IsAbsent(col) {
			return true
		}
	}
	return false
}

// Rename computes res := δ(src) with the attribute renamings given as
// old → new pairs; the data is copied like an all-attribute projection.
func (a *Arena) Rename(res, src string, oldNew map[string]string) (*Relation, error) {
	r := a.Rel(src)
	if r == nil {
		return nil, fmt.Errorf("engine: unknown relation %q", src)
	}
	names := slices.Clone(r.Attrs)
	for old, n := range oldNew {
		ai, err := r.AttrIndex(old)
		if err != nil {
			return nil, err
		}
		names[ai] = n
	}
	for i, n := range names {
		if slices.Contains(names[:i], n) {
			return nil, fmt.Errorf("engine: rename produces duplicate attribute %q", n)
		}
	}
	out, err := a.selectProject(res, src, nil, nil)
	if err != nil {
		return nil, err
	}
	out.Attrs = names
	return out, nil
}

// allAttrs returns the attribute indexes of r in order.
func allAttrs(r *Relation) []uint16 {
	out := make([]uint16, len(r.Attrs))
	for i := range out {
		out[i] = uint16(i)
	}
	return out
}

// fields returns the fields of row at the given attributes.
func (r *Relation) fields(row int32, attrs []uint16) []FieldID {
	out := make([]FieldID, len(attrs))
	for i, at := range attrs {
		out[i] = FieldID{Rel: r.id, Row: row, Attr: at}
	}
	return out
}

func containsAttr(xs []uint16, a uint16) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}
