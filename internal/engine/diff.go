package engine

import "fmt"

// This file implements the difference of Figure 9 — the last operator of the
// paper's algebra the columnar engine could not run natively — on the
// uniform encoding. The per-world semantics is set difference in every
// world: a left tuple survives exactly in the worlds where no right tuple
// equals it. On the representation that becomes tuple-level reasoning (the
// MayBMS/SPROUT line calls difference the operator that forces it): every
// (left slot, right slot) pair that could coincide in some world entangles
// the components defining both slots, and the result slot's presence mask is
// evaluated per local world of the composed component.
//
// The machinery is the tuple-level toolkit of conf.go/tuplelevel.go applied
// operator-side:
//
//   - candidate pruning reads field domains through the join probes
//     (fieldCanTake/fieldsIntersect) so only pairs whose templates and
//     or-set domains can actually coincide pay for composition — on census
//     data, where rows are near-unique, that is the same-slot pair and a
//     handful of noisy neighbours;
//   - grouping is the arena's component union: mergeComps composes the
//     components of a left slot and all its candidate right slots into one
//     (rows sharing components group transitively, exactly the union-find
//     of tupleLevelView), with every composition compressed by the
//     appendFieldKey byte-trick and guarded by MaxCompRows — the inherent
//     blow-up of Section 4 surfaces as an error, not as memory exhaustion;
//   - evaluation is one sweep per composed component, writing a presence
//     mask that the shared extendRow machinery turns into ⊥ marks on the
//     result fields.
//
// Unlike the across-world operators, Difference is compositional: it adopts
// and extends shared components like Select/Join do, so the result stays
// correlated with its inputs — chains like (A − B) − B and unions over
// difference results keep the exact joint distribution.

// Difference computes res := l − r for two relations with identical schemas
// (algorithm difference of Figure 9 on the uniform encoding). The result
// holds one tuple slot per l slot; slot i is present in a world exactly when
// l's slot i is present and no r slot carries an equal tuple there.
func (a *Arena) Difference(res, l, r string) (*Relation, error) {
	if err := a.materialize(); err != nil {
		return nil, err
	}
	lr, rr := a.Rel(l), a.Rel(r)
	if lr == nil || rr == nil {
		return nil, fmt.Errorf("engine: unknown relation in difference (%q, %q)", l, r)
	}
	if a.Rel(res) != nil {
		return nil, fmt.Errorf("engine: relation %q already exists", res)
	}
	if len(lr.Attrs) != len(rr.Attrs) {
		return nil, fmt.Errorf("engine: difference schema mismatch")
	}
	for i := range lr.Attrs {
		if lr.Attrs[i] != rr.Attrs[i] {
			return nil, fmt.Errorf("engine: difference schema mismatch at %q vs %q", lr.Attrs[i], rr.Attrs[i])
		}
	}
	nAttrs := len(lr.Attrs)

	// Index the fully certain right rows by their template key: a certain
	// right tuple is in every world, so an equal certain left tuple can
	// never survive, and an uncertain left slot is deleted wherever its
	// fields take exactly that tuple's values. Right rows with placeholders
	// are few (density-driven) and checked pairwise.
	certKey := func(rel *Relation, row int32) string {
		key := make([]byte, 0, 4*nAttrs)
		for ai := 0; ai < nAttrs; ai++ {
			key = appendFieldKey(key, rel.Cols[ai][row], false)
		}
		return string(key)
	}
	certR := make(map[string][]int32)
	var certRows, uncR []int32
	rn := rr.NumRows()
	for j, k := 0, 0; j < rn; j++ {
		rj := int32(j)
		if k < len(rr.unc.rows) && rr.unc.rows[k] == rj {
			uncR = append(uncR, rj)
			k++
			continue
		}
		certRows = append(certRows, rj)
		certR[certKey(rr, rj)] = append(certR[certKey(rr, rj)], rj)
	}

	// compatible prunes a (left slot, right slot) pair on templates and
	// or-set domains: attributes certain on both sides must be equal, and a
	// certain value must lie in the other side's domain (fieldCanTake), two
	// uncertain fields must share a value (fieldsIntersect). The checks are
	// necessary conditions only — the mask below settles exact semantics —
	// but they keep compositions to the pairs that can actually coincide.
	compatible := func(li, rj int32) bool {
		for ai := 0; ai < nAttrs; ai++ {
			lv, rv := lr.Cols[ai][li], rr.Cols[ai][rj]
			lUnc, rUnc := lv == Placeholder, rv == Placeholder
			switch {
			case !lUnc && !rUnc:
				if lv != rv {
					return false
				}
			case lUnc && !rUnc:
				if !a.fieldCanTake(FieldID{Rel: lr.id, Row: li, Attr: uint16(ai)}, rv) {
					return false
				}
			case !lUnc && rUnc:
				if !a.fieldCanTake(FieldID{Rel: rr.id, Row: rj, Attr: uint16(ai)}, lv) {
					return false
				}
			default:
				lf := FieldID{Rel: lr.id, Row: li, Attr: uint16(ai)}
				rf := FieldID{Rel: rr.id, Row: rj, Attr: uint16(ai)}
				if !a.fieldsIntersect(lf, rf) {
					return false
				}
			}
		}
		return true
	}

	// Phase 1: per left slot, find the candidate right slots and compose the
	// components of every field involved (the left slot's own fields plus
	// each uncertain candidate's fields) into one. All composition happens
	// before evaluation so local-world indexes stay stable; slots sharing
	// components land in the same composed component transitively.
	type slotMatch struct {
		src int32
		// dropped marks a certain left tuple equal to a certain right tuple:
		// deleted in every world, the slot is not emitted at all.
		dropped bool
		// certCands are fully certain right slots a left slot with
		// placeholders might equal; uncCands are placeholder-carrying right
		// slots that survived pruning.
		certCands []int32
		uncCands  []int32
		// fields are the composed fields: the left slot's own, then each
		// uncertain candidate's.
		fields []FieldID
	}
	ln := lr.NumRows()
	matches := make([]slotMatch, ln)
	for i := 0; i < ln; i++ {
		if err := a.tick(); err != nil {
			return nil, err
		}
		li := int32(i)
		m := &matches[i]
		m.src = li
		lUnc := lr.unc.of(li)
		if len(lUnc) == 0 {
			if len(certR[certKey(lr, li)]) > 0 {
				m.dropped = true
				continue
			}
		} else {
			// A left slot with placeholders scans the certain right rows for
			// template-compatible tuples; there are at most a handful of
			// uncertain left slots per density, so the scan stays linear.
			for _, rj := range certRows {
				if compatible(li, rj) {
					m.certCands = append(m.certCands, rj)
				}
			}
		}
		for _, rj := range uncR {
			if compatible(li, rj) {
				m.uncCands = append(m.uncCands, rj)
			}
		}
		if len(m.certCands) == 0 && len(m.uncCands) == 0 {
			continue
		}
		for _, at := range lUnc {
			m.fields = append(m.fields, FieldID{Rel: lr.id, Row: li, Attr: at})
		}
		for _, rj := range m.uncCands {
			for _, at := range rr.unc.of(rj) {
				f := FieldID{Rel: rr.id, Row: rj, Attr: at}
				if lr.id == rr.id && containsField(m.fields, f) {
					continue // self-difference: the slot's fields appear on both sides
				}
				m.fields = append(m.fields, f)
			}
		}
		if len(m.fields) > 1 {
			if _, err := a.mergeComps(m.fields...); err != nil {
				return nil, err
			}
		}
	}

	// Phase 2: evaluate the presence mask of every matched slot — present
	// where the left tuple is present and no candidate equals it — and plan
	// the surviving slots.
	type slot struct {
		src  int32
		keep presence
	}
	var plans []slot
	for i := 0; i < ln; i++ {
		if err := a.tick(); err != nil {
			return nil, err
		}
		m := &matches[i]
		if m.dropped {
			continue
		}
		if len(m.fields) == 0 && len(m.certCands) == 0 {
			plans = append(plans, slot{src: m.src})
			continue
		}
		var comp *Component
		var cols map[FieldID]int
		if len(m.fields) > 0 {
			comp = a.compFor(m.fields[0])
			cols = make(map[FieldID]int, len(m.fields))
			for _, f := range m.fields {
				cols[f] = comp.Pos(f)
			}
		}
		lUnc := lr.unc.of(m.src)
		// lval reads attribute ai of the left tuple at local world w;
		// ok is false when the field is absent there.
		lval := func(w int, ai uint16) (int32, bool) {
			v := lr.Cols[ai][m.src]
			if v != Placeholder {
				return v, true
			}
			crow := &comp.Rows[w]
			col := cols[FieldID{Rel: lr.id, Row: m.src, Attr: ai}]
			return crow.Vals[col], !crow.IsAbsent(col)
		}
		nWorlds := 1
		if comp != nil {
			nWorlds = len(comp.Rows)
		}
		pass := make([]bool, nWorlds)
		any := false
		for w := 0; w < nWorlds; w++ {
			present := true
			for _, at := range lUnc {
				if _, ok := lval(w, at); !ok {
					present = false
					break
				}
			}
			if !present {
				continue
			}
			deleted := false
			for _, rj := range m.certCands {
				equal := true
				for _, at := range lUnc {
					lv, _ := lval(w, at)
					if lv != rr.Cols[at][rj] {
						equal = false
						break
					}
				}
				if equal {
					deleted = true
					break
				}
			}
			for _, rj := range m.uncCands {
				if deleted {
					break
				}
				equal := true
				for ai := 0; ai < nAttrs; ai++ {
					at := uint16(ai)
					lCert := lr.Cols[ai][m.src] != Placeholder
					rCert := rr.Cols[ai][rj] != Placeholder
					if lCert && rCert {
						continue // equal by candidate pruning
					}
					lv, lok := lval(w, at)
					rv, rok := rr.Cols[ai][rj], true
					if !rCert {
						crow := &comp.Rows[w]
						col := cols[FieldID{Rel: rr.id, Row: rj, Attr: at}]
						rv, rok = crow.Vals[col], !crow.IsAbsent(col)
					}
					if !rok { // the right tuple is absent from this world
						equal = false
						break
					}
					if !lok || lv != rv {
						equal = false
						break
					}
				}
				if equal {
					deleted = true
				}
			}
			if !deleted {
				pass[w] = true
				any = true
			}
		}
		if !any {
			continue // deleted in every world
		}
		plans = append(plans, slot{src: m.src, keep: presence{comp, pass}})
	}

	// Fully certain left slots whose deletion depends on uncertain right
	// tuples have no field of their own to carry the mask: extendRow gives
	// them a carrier, like Project's ⊥-propagation.
	sel := make([]int32, len(plans))
	for j := range plans {
		sel[j] = plans[j].src
	}
	order := allAttrs(lr)
	out, err := a.addRelation(res, lr.Attrs, make([][]int32, len(order)))
	if err != nil {
		return nil, err
	}
	if err := a.gather(out, lr, order, sel); err != nil {
		return nil, err
	}
	for j, p := range plans {
		if err := a.tick(); err != nil {
			return nil, err
		}
		u := urow{j: int32(j), src: p.src, attrs: lr.unc.of(p.src)}
		if u.attrs == nil && p.keep.comp == nil {
			continue
		}
		if err := a.extendRow(out, lr, &u, order, &rowMasks{keep: p.keep}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func containsField(fs []FieldID, f FieldID) bool {
	for _, x := range fs {
		if x == f {
			return true
		}
	}
	return false
}
