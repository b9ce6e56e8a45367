package engine

// IndexParts is the fan-out of the store's component index.
const IndexParts = indexParts

// IndexPartsFilled returns how many parts of the store's component index
// hold a component, and how many hold a field.
func IndexPartsFilled(s *Store) (comps, fields int) {
	for k := range s.idx.comps {
		if len(s.idx.comps[k].ents) > 0 {
			comps++
		}
		if len(s.idx.fields[k].ents) > 0 {
			fields++
		}
	}
	return comps, fields
}

// ValidateSnapshot runs the store invariant check over a snapshot's state.
func ValidateSnapshot(sn *Snapshot, eps float64) error {
	return (&Store{rels: sn.rels, relID: sn.relID, idx: sn.idx}).Validate(eps)
}

// RecordDecisions makes the selection stages run on a report every row they
// decide per local world; the returned function lists them as (stage,
// source row) pairs in the order they were decided.
func RecordDecisions(a *Arena) func() [][2]int32 {
	var got [][2]int32
	a.onDecide = func(stage int, row int32) { got = append(got, [2]int32{int32(stage), row}) }
	return func() [][2]int32 { return got }
}
