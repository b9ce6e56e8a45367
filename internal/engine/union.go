package engine

import "fmt"

// Union computes res := l ∪ r for two relations with identical schemas.
// Like the WSD union of Figure 9, the result holds one tuple slot per input
// slot; duplicate tuples coincide when worlds are decoded (set semantics).
func (a *Arena) Union(res, l, r string) (*Relation, error) {
	if err := a.materialize(); err != nil {
		return nil, err
	}
	lr, rr := a.Rel(l), a.Rel(r)
	if lr == nil || rr == nil {
		return nil, fmt.Errorf("engine: unknown relation in union (%q, %q)", l, r)
	}
	if a.Rel(res) != nil {
		return nil, fmt.Errorf("engine: relation %q already exists", res)
	}
	if len(lr.Attrs) != len(rr.Attrs) {
		return nil, fmt.Errorf("engine: union schema mismatch")
	}
	for i := range lr.Attrs {
		if lr.Attrs[i] != rr.Attrs[i] {
			return nil, fmt.Errorf("engine: union schema mismatch at %q vs %q", lr.Attrs[i], rr.Attrs[i])
		}
	}
	ln, rn := lr.NumRows(), rr.NumRows()
	cols := make([][]int32, len(lr.Attrs))
	for i := range cols {
		cols[i] = make([]int32, ln+rn)
		copy(cols[i], lr.Cols[i])
		copy(cols[i][ln:], rr.Cols[i])
	}
	out, err := a.addRelation(res, lr.Attrs, cols)
	if err != nil {
		return nil, err
	}
	ext := func(src *Relation, offset int) error {
		for i, row := range src.unc.rows {
			for _, at := range src.unc.at(i) {
				if err := a.tick(); err != nil {
					return err
				}
				srcF := FieldID{Rel: src.id, Row: row, Attr: at}
				if err := a.extendField(out, srcF, int32(offset)+row, at); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := ext(lr, 0); err != nil {
		return nil, err
	}
	if err := ext(rr, ln); err != nil {
		return nil, err
	}
	return out, nil
}

// Product computes res := l × r for two relations with disjoint attribute
// sets (the product of Figure 9 on the uniform encoding): one result slot
// per pair of input slots, absent from a world whenever either input slot
// is absent.
func (a *Arena) Product(res, l, r string) (*Relation, error) {
	if err := a.materialize(); err != nil {
		return nil, err
	}
	lr, rr := a.Rel(l), a.Rel(r)
	if lr == nil || rr == nil {
		return nil, fmt.Errorf("engine: unknown relation in product (%q, %q)", l, r)
	}
	if a.Rel(res) != nil {
		return nil, fmt.Errorf("engine: relation %q already exists", res)
	}
	for _, x := range lr.Attrs {
		for _, y := range rr.Attrs {
			if x == y {
				return nil, fmt.Errorf("engine: product: attribute %q on both sides", x)
			}
		}
	}
	ln, rn := lr.NumRows(), rr.NumRows()
	attrs := append(append([]string{}, lr.Attrs...), rr.Attrs...)
	cols := make([][]int32, len(attrs))
	for i := range cols {
		cols[i] = make([]int32, ln*rn)
	}
	slot := func(i, j int) int { return i*rn + j }
	for i := 0; i < ln; i++ {
		for j := 0; j < rn; j++ {
			if err := a.tick(); err != nil {
				return nil, err
			}
			k := slot(i, j)
			for at := range lr.Attrs {
				cols[at][k] = lr.Cols[at][i]
			}
			for b := range rr.Attrs {
				cols[len(lr.Attrs)+b][k] = rr.Cols[b][j]
			}
		}
	}
	out, err := a.addRelation(res, attrs, cols)
	if err != nil {
		return nil, err
	}
	ext := func(srcRel *Relation, srcRow int32, attrOffset uint16, dstRow int) error {
		for _, at := range srcRel.unc.of(srcRow) {
			if err := a.tick(); err != nil {
				return err
			}
			srcF := FieldID{Rel: srcRel.id, Row: srcRow, Attr: at}
			if err := a.extendField(out, srcF, int32(dstRow), attrOffset+at); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < ln; i++ {
		for j := 0; j < rn; j++ {
			if err := a.tick(); err != nil {
				return nil, err
			}
			k := slot(i, j)
			if err := ext(lr, int32(i), 0, k); err != nil {
				return nil, err
			}
			if err := ext(rr, int32(j), uint16(len(lr.Attrs)), k); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
