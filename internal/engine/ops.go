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
func (a *Arena) Select(res, src string, p Pred) error {
	return a.selectProject(res, src, p, nil)
}

// Project computes res := π_attrs(src), keeping one result row per source
// row (tuple slots; duplicates coincide at decode time). When a dropped
// uncertain field records tuple absence, that absence is propagated into
// the kept fields — composing components when necessary — so deleted tuples
// are not resurrected (the ⊥-propagation of Figure 9 in uniform encoding).
func (a *Arena) Project(res, src string, attrs ...string) error {
	return a.SelectProject(res, src, nil, attrs...)
}

// SelectProject computes res := π_attrs(σ_p(src)) in one pass (a nil p
// selects every row). The result is Select into a temporary, Project of it
// and dropping the temporary — same template, components and local worlds,
// up to the order of fields within a component — but only the kept columns
// are gathered and only the components of kept and presence-carrying fields
// are adopted.
func (a *Arena) SelectProject(res, src string, p Pred, attrs ...string) error {
	if len(attrs) == 0 {
		return fmt.Errorf("engine: empty projection")
	}
	return a.selectProject(res, src, p, attrs)
}

// urow is a result row whose source row holds placeholders, with the plan
// for the copies of its fields.
type urow struct {
	j, src int32
	attrs  []uint16 // the source row's placeholder attributes
	// ref are those the condition reads: the row is decided per local world
	// of their component. inSel are the placeholder attributes sharing that
	// component at the decision — their copies carry the condition — and
	// failing says it fails in some local world.
	ref, inSel []uint16
	failing    bool
	// drop are the dropped attributes whose copies would carry absence; the
	// kept copies in their component carry their presence or, when none is
	// kept, a carrier field does.
	drop []uint16
}

// Selection is a result of σ, π and δ read in place: the kept columns of
// its source relation at a selection vector. Its template cells are the
// source's — placeholders included — except the carriers, result rows whose
// first column becomes a placeholder to carry the presence of dropped
// fields. Its fields join their components only when something asks for the
// result as a relation (Arena.Rel, RelByID, Commit, or the next operator);
// the result reader reads it as it stands. A Selection over a relation that
// needs no building is the identity one.
type Selection struct {
	a *Arena
	// out is the result relation, src the relation read (the same relation
	// for the identity selection).
	out, src *Relation
	sel      []int32 // surviving source rows, ascending; nil = every row
	order    []uint16
	cols     [][]int32 // src's columns in result order
	cp       CompiledPred
	// plans are the surviving rows with a condition or absence plan, in
	// source order; the others copy their placeholders as they stand.
	plans    []urow
	carriers []int32 // ascending result rows
}

// selectProject computes π_attrs(σ_p(src)) as res; nil p selects every row,
// nil attrs keeps every attribute. Compositions happen in the two-step
// order — σ's per row, then π's per surviving row — before any mask is
// evaluated, so local-world indexes stay stable and the components equal the
// two-step ones. The result is left pending as a Selection.
func (a *Arena) selectProject(res, src string, p Pred, attrs []string) error {
	if err := a.materialize(); err != nil {
		return err
	}
	r := a.Rel(src)
	if r == nil {
		return fmt.Errorf("engine: unknown relation %q", src)
	}
	if a.has(res) {
		return fmt.Errorf("engine: relation %q already exists", res)
	}
	order := allAttrs(r)
	if attrs != nil {
		order = make([]uint16, len(attrs))
		for i, at := range attrs {
			ai, err := r.AttrIndex(at)
			if err != nil {
				return err
			}
			if containsAttr(order[:i], ai) {
				return fmt.Errorf("engine: duplicate projection attribute %q", at)
			}
			order[i] = ai
		}
	}
	v := &Selection{a: a, src: r, order: order}
	x := &r.unc
	if p != nil {
		var err error
		if v.cp, err = p.Compile(r); err != nil {
			return err
		}
		// σ(AθB) and multi-attribute conditions entangle the components of
		// the placeholders they read: compose them, row by row.
		var refs []urow // rows whose condition reads placeholders
		predAttrs := v.cp.Attrs()
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
				return err
			}
			if len(u.ref) > 1 {
				if _, err := a.mergeComps(r.fields(row, u.ref)...); err != nil {
					return err
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
				return err
			}
			// Read, do not adopt: a rejected row never extends its
			// component, and a surviving one adopts it when it does.
			comp := a.ComponentOf(FieldID{Rel: r.id, Row: u.src, Attr: u.ref[0]})
			pass := condMask(r, v.cp, u.src, u.ref, comp)
			if !slices.Contains(pass, true) {
				continue
			}
			u.failing = slices.Contains(pass, false)
			for _, at := range u.attrs {
				if a.ComponentOf(FieldID{Rel: r.id, Row: u.src, Attr: at}) == comp {
					u.inSel = append(u.inSel, at)
				}
			}
			v.plans = append(v.plans, *u)
		}
		if v.sel, err = a.filter(r, v.cp, refs); err != nil {
			return err
		}
	}

	// π's ⊥-propagation: a dropped field carrying absence — its own, or the
	// condition's — joins the component of the row's kept fields.
	if len(order) < len(r.Attrs) {
		var plans []urow
		err := v.eachRow(func(u *urow) error {
			if err := a.tick(); err != nil {
				return err
			}
			for _, at := range u.attrs {
				if !containsAttr(order, at) && ((u.failing && containsAttr(u.inSel, at)) || a.fieldHasAbsence(FieldID{Rel: r.id, Row: u.src, Attr: at})) {
					u.drop = append(u.drop, at)
				}
			}
			if u.ref != nil || u.drop != nil {
				plans = append(plans, *u)
			}
			if u.drop == nil {
				return nil
			}
			fields := r.fields(u.src, u.drop)
			for _, at := range u.attrs {
				if containsAttr(order, at) {
					fields = append(fields, FieldID{Rel: r.id, Row: u.src, Attr: at})
				}
			}
			if len(fields) == len(u.drop) {
				v.carriers = append(v.carriers, u.j)
			}
			_, err := a.mergeComps(fields...)
			return err
		})
		if err != nil {
			return err
		}
		v.plans = plans
	}

	names := make([]string, len(order))
	v.cols = make([][]int32, len(order))
	for i, at := range order {
		names[i], v.cols[i] = r.Attrs[at], r.Cols[at]
	}
	var err error
	if v.out, err = a.addRelation(res, names, make([][]int32, len(order))); err != nil {
		return err
	}
	a.pending = v
	return nil
}

// eachRow calls fn, in order, on every result row whose source row holds
// placeholders, with its plan: the source's uncertainty index walked
// against the ascending selection vector, the plans merged in.
func (v *Selection) eachRow(fn func(u *urow) error) error {
	x, sel := &v.src.unc, v.sel
	var u urow // one for the walk: fn may keep only a copy
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
		u = urow{j: j, src: row, attrs: x.at(i)}
		for k < len(v.plans) && v.plans[k].src < row {
			k++
		}
		if k < len(v.plans) && v.plans[k].src == row {
			p := &v.plans[k]
			u.ref, u.inSel, u.failing, u.drop = p.ref, p.inSel, p.failing, p.drop
		}
		if err := fn(&u); err != nil {
			return err
		}
	}
	return nil
}

// masks returns the presence masks the copies of row u's fields carry: cond
// over the component of the fields the condition reads, keep — the
// presence of the dropped fields — over theirs. comp resolves components:
// compFor when the copies are about to join them, ComponentOf when they are
// only counted; either way cond.pass indexes keep's local worlds wherever
// it is read, since a dropped inSel field merged the condition's component
// into keep's.
//
//maybms:unguarded bounded single-component probe; the loops that call it tick per row
func (v *Selection) masks(u *urow, comp func(FieldID) *Component) (cond, keep presence) {
	r := v.src
	if u.ref != nil {
		cond.comp = comp(FieldID{Rel: r.id, Row: u.src, Attr: u.ref[0]})
		cond.pass = condMask(r, v.cp, u.src, u.ref, cond.comp)
	}
	if u.drop == nil {
		return cond, keep
	}
	m := comp(FieldID{Rel: r.id, Row: u.src, Attr: u.drop[0]})
	keep = presence{comp: m, pass: make([]bool, len(m.Rows))}
	for w, crow := range m.Rows {
		keep.pass[w] = true
		for _, at := range u.drop {
			if crow.IsAbsent(m.Pos(FieldID{Rel: r.id, Row: u.src, Attr: at})) || (containsAttr(u.inSel, at) && !cond.pass[w]) {
				keep.pass[w] = false
				break
			}
		}
	}
	return cond, keep
}

// Selection returns the named relation as a Selection without building it:
// the pending result of σ, π or δ, or the identity selection over any other
// relation. nil if there is no such relation.
func (a *Arena) Selection(name string) *Selection {
	if v := a.pending; v != nil && v.out.Name == name {
		return v
	}
	r := a.Rel(name)
	if r == nil {
		return nil
	}
	return &Selection{a: a, out: r, src: r, order: allAttrs(r), cols: r.Cols}
}

// Name returns the result relation's name.
func (v *Selection) Name() string { return v.out.Name }

// Len returns the number of result rows.
func (v *Selection) Len() int {
	if v.sel == nil {
		return v.src.NumRows()
	}
	return len(v.sel)
}

// Cols returns the source columns in result order, shared and read-only:
// result row i reads row Sel()[i] of them (row i when Sel is nil).
func (v *Selection) Cols() [][]int32 { return v.cols }

// Sel returns the selection vector: the source row of every result row,
// ascending; nil when the result keeps every source row.
func (v *Selection) Sel() []int32 { return v.sel }

// Carriers returns the result rows, ascending, whose first column reads
// Placeholder whatever the source holds there.
func (v *Selection) Carriers() []int32 { return v.carriers }

// At returns the template cell of result row i, column c.
func (v *Selection) At(i, c int) int32 {
	if c == 0 && len(v.carriers) > 0 {
		if _, ok := slices.BinarySearch(v.carriers, int32(i)); ok {
			return Placeholder
		}
	}
	if v.sel != nil {
		i = int(v.sel[i])
	}
	return v.cols[c][i]
}

// Stats returns the representation statistics of the result, equal to
// those of the relation it builds: each copy counts under its source
// field's component, present where the source field is and the masks
// extendRow gives it hold, and a carrier under the component of the
// presence it carries.
//
//maybms:unguarded statistics probe like statsOf: one bounded pass per uncertain field
func (v *Selection) Stats() Stats {
	st := Stats{RSize: v.Len()}
	r := v.src
	kept := make([]bool, len(r.Attrs))
	for _, at := range v.order {
		kept[at] = true
	}
	fieldsPerComp := make(map[*Component]int)
	_ = v.eachRow(func(u *urow) error {
		cond, keep := v.masks(u, v.a.ComponentOf)
		carried := false
		for _, at := range u.attrs {
			if !kept[at] {
				continue
			}
			carried = true
			f := FieldID{Rel: r.id, Row: u.src, Attr: at}
			c := v.a.ComponentOf(f)
			if c == nil {
				continue
			}
			m1 := cond
			if !containsAttr(u.inSel, at) {
				m1 = presence{}
			}
			fieldsPerComp[c]++
			col := c.Pos(f)
			for w, crow := range c.Rows {
				if !crow.IsAbsent(col) && !m1.fails(c, w) && !keep.fails(c, w) {
					st.CSize++
				}
			}
		}
		if !carried && keep.comp != nil {
			fieldsPerComp[keep.comp]++
			for _, pass := range keep.pass {
				if pass {
					st.CSize++
				}
			}
		}
		return nil
	})
	st.NumComp = len(fieldsPerComp)
	for _, n := range fieldsPerComp {
		if n > 1 {
			st.NumCompGT1++
		}
	}
	return st
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
// old → new pairs; the data is read like an all-attribute projection.
func (a *Arena) Rename(res, src string, oldNew map[string]string) error {
	if err := a.materialize(); err != nil {
		return err
	}
	r := a.Rel(src)
	if r == nil {
		return fmt.Errorf("engine: unknown relation %q", src)
	}
	names := slices.Clone(r.Attrs)
	for old, n := range oldNew {
		ai, err := r.AttrIndex(old)
		if err != nil {
			return err
		}
		names[ai] = n
	}
	for i, n := range names {
		if slices.Contains(names[:i], n) {
			return fmt.Errorf("engine: rename produces duplicate attribute %q", n)
		}
	}
	if err := a.selectProject(res, src, nil, nil); err != nil {
		return err
	}
	a.pending.out.Attrs = names
	return nil
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
