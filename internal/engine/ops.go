package engine

import "fmt"

// This file implements the relational operators on the columnar UWSDT
// store: selection (with arbitrary predicates over one tuple), projection,
// renaming, and equi-join (in join.go). The rewritten operators follow
// Section 5: results are new template relations whose placeholders share
// the component space with their inputs, and tuple absence is tracked by
// per-(field, local world) presence — the uniform encoding of worlds of
// different sizes.
//
// Operators are Arena methods: they read base data through the arena's
// snapshot and write result templates and extended component rows into the
// arena, leaving the shared store untouched — which is what lets many
// sessions run SELECTs concurrently.

type rowPlan struct {
	src  int32
	pass []bool     // per local world of comp: present and condition true; nil = certain presence
	comp *Component // merged component of the referenced uncertain fields
}

// Select computes res := σ_p(src). Rows whose referenced fields are certain
// are filtered directly on the template; rows with uncertain referenced
// fields keep one presence bit per local world of the (possibly composed)
// component holding those fields.
func (a *Arena) Select(res, src string, p Pred) (*Relation, error) {
	r := a.Rel(src)
	if r == nil {
		return nil, fmt.Errorf("engine: unknown relation %q", src)
	}
	if a.Rel(res) != nil {
		return nil, fmt.Errorf("engine: relation %q already exists", res)
	}
	cp, err := p.Compile(r)
	if err != nil {
		return nil, err
	}
	predAttrs := cp.Attrs()

	// Phase 1: compose, per row, the components of the uncertain fields the
	// condition references (σ(AθB) and multi-attribute conditions entangle
	// them). All composition happens before evaluation so local-world
	// indexes stay stable.
	for row, uattrs := range r.uncertain {
		var fields []FieldID
		for _, at := range predAttrs {
			if containsAttr(uattrs, at) {
				fields = append(fields, FieldID{Rel: r.id, Row: row, Attr: at})
			}
		}
		if len(fields) > 1 {
			if _, err := a.mergeComps(fields...); err != nil {
				return nil, err
			}
		}
	}

	// Phase 2: evaluate the condition per row (and per local world for rows
	// with referenced uncertain fields).
	var plans []rowPlan
	n := r.NumRows()
	for i := 0; i < n; i++ {
		if err := a.tick(); err != nil {
			return nil, err
		}
		row := int32(i)
		uattrs := r.uncertain[row]
		var refUnc []uint16
		for _, at := range predAttrs {
			if containsAttr(uattrs, at) {
				refUnc = append(refUnc, at)
			}
		}
		if len(refUnc) == 0 {
			if cp.Eval(func(ai uint16) int32 { return r.Cols[ai][i] }) {
				plans = append(plans, rowPlan{src: row})
			}
			continue
		}
		comp := a.compFor(FieldID{Rel: r.id, Row: row, Attr: refUnc[0]})
		cols := make(map[uint16]int, len(refUnc))
		for _, at := range refUnc {
			cols[at] = comp.Pos(FieldID{Rel: r.id, Row: row, Attr: at})
		}
		pass := make([]bool, len(comp.Rows))
		any := false
		for w := range comp.Rows {
			crow := &comp.Rows[w]
			absent := false
			for _, at := range refUnc {
				if crow.IsAbsent(cols[at]) {
					absent = true
					break
				}
			}
			if absent {
				continue
			}
			ok := cp.Eval(func(ai uint16) int32 {
				if ci, isU := cols[ai]; isU {
					return crow.Vals[ci]
				}
				return r.Cols[ai][i]
			})
			if ok {
				pass[w] = true
				any = true
			}
		}
		if any {
			plans = append(plans, rowPlan{src: row, pass: pass, comp: comp})
		}
	}
	return a.materialize(res, r, nil, plans)
}

// materialize builds the result template from the planned source rows and
// extends the arena's components with the result fields. attrOrder selects
// and orders the source attributes (nil = all, source order). For plans
// with a presence mask, the copies of the row's uncertain fields living in
// the plan's component are marked absent at failing local worlds.
func (a *Arena) materialize(res string, r *Relation, attrOrder []uint16, plans []rowPlan) (*Relation, error) {
	if attrOrder == nil {
		attrOrder = make([]uint16, len(r.Attrs))
		for i := range attrOrder {
			attrOrder[i] = uint16(i)
		}
	}
	attrs := make([]string, len(attrOrder))
	for i, at := range attrOrder {
		attrs[i] = r.Attrs[at]
	}
	cols := make([][]int32, len(attrOrder))
	for i := range cols {
		cols[i] = make([]int32, len(plans))
	}
	for j, pl := range plans {
		if err := a.tick(); err != nil {
			return nil, err
		}
		for i, at := range attrOrder {
			cols[i][j] = r.Cols[at][pl.src]
		}
	}
	out, err := a.addRelation(res, attrs, cols)
	if err != nil {
		return nil, err
	}
	// Position of each source attribute in the result (or -1 if dropped).
	dstOf := make([]int, len(r.Attrs))
	for i := range dstOf {
		dstOf[i] = -1
	}
	for i, at := range attrOrder {
		dstOf[at] = i
	}
	for j, pl := range plans {
		if err := a.tick(); err != nil {
			return nil, err
		}
		for _, at := range r.uncertain[pl.src] {
			di := dstOf[at]
			if di < 0 {
				continue // dropped attribute; Project handles ⊥ propagation
			}
			srcF := FieldID{Rel: r.id, Row: pl.src, Attr: at}
			comp := a.compFor(srcF)
			col := comp.Pos(srcF)
			vals := make([]int32, len(comp.Rows))
			absent := make([]bool, len(comp.Rows))
			for w := range comp.Rows {
				vals[w] = comp.Rows[w].Vals[col]
				absent[w] = comp.Rows[w].IsAbsent(col)
				if pl.pass != nil && comp == pl.comp && !pl.pass[w] {
					absent[w] = true
				}
			}
			dstF := FieldID{Rel: out.id, Row: int32(j), Attr: uint16(di)}
			if err := a.addField(comp, dstF, vals, absent); err != nil {
				return nil, err
			}
			out.Cols[di][j] = Placeholder
			out.uncertain[int32(j)] = append(out.uncertain[int32(j)], uint16(di))
		}
	}
	return out, nil
}

// Project computes res := π_attrs(src), keeping one result row per source
// row (tuple slots; duplicates coincide at decode time). When a dropped
// uncertain field records tuple absence, that absence is propagated into
// the kept fields — composing components when necessary — so deleted tuples
// are not resurrected (the ⊥-propagation of Figure 9 in uniform encoding).
func (a *Arena) Project(res, src string, attrs ...string) (*Relation, error) {
	r := a.Rel(src)
	if r == nil {
		return nil, fmt.Errorf("engine: unknown relation %q", src)
	}
	if a.Rel(res) != nil {
		return nil, fmt.Errorf("engine: relation %q already exists", res)
	}
	order := make([]uint16, len(attrs))
	keep := make(map[uint16]bool, len(attrs))
	for i, at := range attrs {
		ai, err := r.AttrIndex(at)
		if err != nil {
			return nil, err
		}
		if keep[ai] {
			return nil, fmt.Errorf("engine: duplicate projection attribute %q", at)
		}
		order[i] = ai
		keep[ai] = true
	}

	// Phase 1: for every row whose dropped uncertain fields can mark the
	// tuple absent, compose their components with those of the kept
	// uncertain fields of the row.
	type propagate struct {
		row     int32
		dropped []FieldID // dropped fields carrying absence
		kept    []FieldID // kept uncertain fields
	}
	var props []propagate
	for row, uattrs := range r.uncertain {
		if err := a.tick(); err != nil {
			return nil, err
		}
		var pr propagate
		pr.row = row
		for _, at := range uattrs {
			f := FieldID{Rel: r.id, Row: row, Attr: at}
			if keep[at] {
				pr.kept = append(pr.kept, f)
				continue
			}
			if a.fieldHasAbsence(f) {
				pr.dropped = append(pr.dropped, f)
			}
		}
		if len(pr.dropped) == 0 {
			continue
		}
		if _, err := a.mergeComps(append(append([]FieldID{}, pr.dropped...), pr.kept...)...); err != nil {
			return nil, err
		}
		props = append(props, pr)
	}

	// Phase 2: materialize all rows (no filtering in projection).
	plans := make([]rowPlan, r.NumRows())
	for i := range plans {
		plans[i] = rowPlan{src: int32(i)}
	}
	// Rows needing ⊥ propagation get a presence mask over the merged
	// component: present where no dropped field is absent.
	planOf := make(map[int32]*rowPlan, len(props))
	for i := range plans {
		planOf[plans[i].src] = &plans[i]
	}
	for _, pr := range props {
		if err := a.tick(); err != nil {
			return nil, err
		}
		comp := a.compFor(pr.dropped[0])
		pass := make([]bool, len(comp.Rows))
		for w := range comp.Rows {
			ok := true
			for _, f := range pr.dropped {
				if comp.Rows[w].IsAbsent(comp.Pos(f)) {
					ok = false
					break
				}
			}
			pass[w] = ok
		}
		pl := planOf[pr.row]
		pl.pass = pass
		pl.comp = comp
	}
	out, err := a.materialize(res, r, order, plans)
	if err != nil {
		return nil, err
	}
	// Rows with absence-carrying dropped fields but no kept uncertain field
	// need a presence carrier: the first kept attribute becomes a
	// placeholder with a constant value, absent where the tuple is absent.
	for _, pr := range props {
		if err := a.tick(); err != nil {
			return nil, err
		}
		if len(pr.kept) > 0 {
			continue
		}
		j := pr.row // materialize keeps all rows in order for Project
		comp := a.compFor(pr.dropped[0])
		pass := planOf[pr.row].pass
		vals := make([]int32, len(comp.Rows))
		absent := make([]bool, len(comp.Rows))
		cert := out.Cols[0][j]
		for w := range comp.Rows {
			vals[w] = cert
			absent[w] = !pass[w]
		}
		dstF := FieldID{Rel: out.id, Row: j, Attr: 0}
		if err := a.addField(comp, dstF, vals, absent); err != nil {
			return nil, err
		}
		out.Cols[0][j] = Placeholder
		out.uncertain[j] = append(out.uncertain[j], 0)
	}
	return out, nil
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
	for old := range oldNew {
		if _, err := r.AttrIndex(old); err != nil {
			return nil, err
		}
	}
	out, err := a.Project(res, src, r.Attrs...)
	if err != nil {
		return nil, err
	}
	for i, at := range out.Attrs {
		if n, ok := oldNew[at]; ok {
			out.Attrs[i] = n
		}
	}
	seen := map[string]bool{}
	for _, at := range out.Attrs {
		if seen[at] {
			return nil, fmt.Errorf("engine: rename produces duplicate attribute %q", at)
		}
		seen[at] = true
	}
	return out, nil
}

func containsAttr(xs []uint16, a uint16) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}
