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
