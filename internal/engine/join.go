package engine

import "fmt"

// Join computes res := l ⋈_{onL = onR} r, an equi-join between two template
// relations sharing the component store. Certain join fields go through a
// hash join; pairs with an uncertain join field compose the components of
// the two fields and keep one presence bit per local world (present and
// values equal). The attribute sets must be disjoint (rename first).
func (a *Arena) Join(res, l, r, onL, onR string) (*Relation, error) {
	if err := a.materialize(); err != nil {
		return nil, err
	}
	lr, rr := a.Rel(l), a.Rel(r)
	if lr == nil || rr == nil {
		return nil, fmt.Errorf("engine: unknown relation in join (%q, %q)", l, r)
	}
	if a.Rel(res) != nil {
		return nil, fmt.Errorf("engine: relation %q already exists", res)
	}
	for _, x := range lr.Attrs {
		for _, y := range rr.Attrs {
			if x == y {
				return nil, fmt.Errorf("engine: join: attribute %q on both sides", x)
			}
		}
	}
	la, err := lr.AttrIndex(onL)
	if err != nil {
		return nil, err
	}
	ra, err := rr.AttrIndex(onR)
	if err != nil {
		return nil, err
	}

	// Bucket the certain right rows by join value; collect uncertain rows.
	bucket := make(map[int32][]int32)
	var uncR []int32
	for j := 0; j < rr.NumRows(); j++ {
		v := rr.Cols[ra][j]
		if v == Placeholder {
			uncR = append(uncR, int32(j))
		} else {
			bucket[v] = append(bucket[v], int32(j))
		}
	}

	// Phase 1: discover candidate pairs and compose the components of
	// uncertain join fields (all composition before evaluation).
	type pair struct{ li, rj int32 }
	var pairs []pair
	seen := make(map[pair]bool)
	addPair := func(li, rj int32) {
		p := pair{li, rj}
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	for i := 0; i < lr.NumRows(); i++ {
		if err := a.tick(); err != nil {
			return nil, err
		}
		li := int32(i)
		v := lr.Cols[la][i]
		if v != Placeholder {
			for _, rj := range bucket[v] {
				addPair(li, rj)
			}
			for _, rj := range uncR {
				if a.fieldCanTake(FieldID{Rel: rr.id, Row: rj, Attr: ra}, v) {
					addPair(li, rj)
				}
			}
			continue
		}
		lf := FieldID{Rel: lr.id, Row: li, Attr: la}
		for _, pv := range a.fieldValues(lf) {
			for _, rj := range bucket[pv] {
				addPair(li, rj)
			}
		}
		for _, rj := range uncR {
			rf := FieldID{Rel: rr.id, Row: rj, Attr: ra}
			if a.fieldsIntersect(lf, rf) {
				addPair(li, rj)
			}
		}
	}
	for _, p := range pairs {
		var fields []FieldID
		if lr.Cols[la][p.li] == Placeholder {
			fields = append(fields, FieldID{Rel: lr.id, Row: p.li, Attr: la})
		}
		if rr.Cols[ra][p.rj] == Placeholder {
			fields = append(fields, FieldID{Rel: rr.id, Row: p.rj, Attr: ra})
		}
		if len(fields) > 1 {
			if _, err := a.mergeComps(fields...); err != nil {
				return nil, err
			}
		}
	}

	// Phase 2: evaluate the match mask of every pair and drop dead pairs.
	type plannedPair struct {
		li, rj int32
		pass   []bool
		comp   *Component
	}
	var plan []plannedPair
	for _, p := range pairs {
		if err := a.tick(); err != nil {
			return nil, err
		}
		lUnc := lr.Cols[la][p.li] == Placeholder
		rUnc := rr.Cols[ra][p.rj] == Placeholder
		if !lUnc && !rUnc {
			plan = append(plan, plannedPair{li: p.li, rj: p.rj})
			continue
		}
		var comp *Component
		lf := FieldID{Rel: lr.id, Row: p.li, Attr: la}
		rf := FieldID{Rel: rr.id, Row: p.rj, Attr: ra}
		if lUnc {
			comp = a.compFor(lf)
		} else {
			comp = a.compFor(rf)
		}
		pass := make([]bool, len(comp.Rows))
		any := false
		for w := range comp.Rows {
			crow := &comp.Rows[w]
			lv, lok := lr.Cols[la][p.li], true
			if lUnc {
				col := comp.Pos(lf)
				lv, lok = crow.Vals[col], !crow.IsAbsent(col)
			}
			rv, rok := rr.Cols[ra][p.rj], true
			if rUnc {
				col := comp.Pos(rf)
				rv, rok = crow.Vals[col], !crow.IsAbsent(col)
			}
			if lok && rok && lv == rv {
				pass[w] = true
				any = true
			}
		}
		if any {
			plan = append(plan, plannedPair{li: p.li, rj: p.rj, pass: pass, comp: comp})
		}
	}

	// Phase 3: materialize the result template and extend components.
	attrs := append(append([]string{}, lr.Attrs...), rr.Attrs...)
	cols := make([][]int32, len(attrs))
	for i := range cols {
		cols[i] = make([]int32, len(plan))
	}
	for j, pp := range plan {
		for i := range lr.Attrs {
			cols[i][j] = lr.Cols[i][pp.li]
		}
		off := len(lr.Attrs)
		for i := range rr.Attrs {
			cols[off+i][j] = rr.Cols[i][pp.rj]
		}
	}
	out, err := a.addRelation(res, attrs, cols)
	if err != nil {
		return nil, err
	}
	ext := func(srcRel *Relation, srcRow int32, attrOffset, dstRow int, pp plannedPair) error {
		for _, at := range srcRel.unc.of(srcRow) {
			if err := a.tick(); err != nil {
				return err
			}
			srcF := FieldID{Rel: srcRel.id, Row: srcRow, Attr: at}
			if err := a.extendField(out, srcF, int32(dstRow), uint16(attrOffset)+at, presence{pp.comp, pp.pass}, presence{}); err != nil {
				return err
			}
		}
		return nil
	}
	for j, pp := range plan {
		if err := a.tick(); err != nil {
			return nil, err
		}
		if err := ext(lr, pp.li, 0, j, pp); err != nil {
			return nil, err
		}
		if err := ext(rr, pp.rj, len(lr.Attrs), j, pp); err != nil {
			return nil, err
		}
		// A certain-certain pair whose sides both have no uncertain fields
		// is unconditionally present; otherwise presence is carried by the
		// extended fields (including the pass-masked join fields).
	}
	return out, nil
}

// fieldValues returns the present values of an uncertain field. It reads
// through ComponentOf — no adoption: probe-phase rows that never join should not
// pay for a component copy.
func (a *Arena) fieldValues(f FieldID) []int32 {
	c := a.ComponentOf(f)
	if c == nil {
		return nil
	}
	return compFieldValues(c, f)
}

// compFieldValues collects the distinct present values of field f.
//
//maybms:unguarded bounded single-component probe; the planning loops that call it tick per candidate
func compFieldValues(c *Component, f FieldID) []int32 {
	col := c.Pos(f)
	seen := make(map[int32]bool)
	var out []int32
	for _, r := range c.Rows {
		if !r.IsAbsent(col) && !seen[r.Vals[col]] {
			seen[r.Vals[col]] = true
			out = append(out, r.Vals[col])
		}
	}
	return out
}

// fieldCanTake reports whether an uncertain field can take value v
// (read-only, no adoption).
//
//maybms:unguarded bounded single-component probe; the planning loops that call it tick per candidate
func (a *Arena) fieldCanTake(f FieldID, v int32) bool {
	c := a.ComponentOf(f)
	if c == nil {
		return false
	}
	col := c.Pos(f)
	for _, r := range c.Rows {
		if !r.IsAbsent(col) && r.Vals[col] == v {
			return true
		}
	}
	return false
}

// fieldsIntersect reports whether two uncertain fields can take a common
// value in some world. When the fields share a component the check is exact
// (joint rows); otherwise the value sets are intersected. Reads through
// ComponentOf — adoption remaps every field of a component at once, so pointer
// equality between the resolved components stays exact.
//
//maybms:unguarded bounded single-component probe; the planning loops that call it tick per candidate
func (a *Arena) fieldsIntersect(f, g FieldID) bool {
	cf, cg := a.ComponentOf(f), a.ComponentOf(g)
	if cf == nil || cg == nil {
		return false
	}
	if cf == cg {
		fc, gc := cf.Pos(f), cf.Pos(g)
		for _, r := range cf.Rows {
			if !r.IsAbsent(fc) && !r.IsAbsent(gc) && r.Vals[fc] == r.Vals[gc] {
				return true
			}
		}
		return false
	}
	vals := make(map[int32]bool)
	for _, v := range a.fieldValues(f) {
		vals[v] = true
	}
	for _, v := range a.fieldValues(g) {
		if vals[v] {
			return true
		}
	}
	return false
}
