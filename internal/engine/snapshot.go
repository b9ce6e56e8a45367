package engine

// This file implements the read side of the store's concurrency model: an
// immutable Snapshot of the catalog and component space, produced in O(1) by
// copy-on-write. Queries run against snapshots and write their results into
// per-session Arenas (arena.go), so independent SELECTs never contend on the
// store and never mutate shared components.
//
// The contract has three parts:
//
//   - Snapshot() is O(1): it hands out the store's live containers and marks
//     them shared. The first catalog mutation afterwards detaches — clones
//     the containers (not the relations or components themselves) — so live
//     snapshots keep reading a consistent frozen view.
//   - Store mutators that only restructure the catalog (AddRelation,
//     RenameRelation, DropRelation, Arena.Commit) are object-COW: they
//     replace map entries with fresh objects instead of editing shared ones,
//     and are therefore safe to run concurrently with snapshot readers (one
//     writer at a time; the session API serializes writers).
//   - Mutators that rewrite shared objects in place (SetUncertain, the
//     chase) are load-time operations: they must not run while snapshots
//     are live. Snapshots taken afterwards observe their effects, as usual.
//     Each one bumps the store's rewrite counter, which a snapshot records
//     (Snapshot.Rewrites): state derived from an older snapshot — the shard
//     set — knows from a changed count that it cannot be patched.

// Snapshot is a read-only, point-in-time view of a store's catalog and
// component space. It is safe for concurrent use by any number of readers
// and stays valid — frozen at its acquisition point — across subsequent
// catalog writes. Obtain one with Store.Snapshot, run operators through a
// NewArena over it.
type Snapshot struct {
	store     *Store
	rels      []*Relation
	relID     map[string]int32
	comps     map[int32]*Component
	fieldComp map[FieldID]int32
	rewrites  uint64
}

// Snapshot returns a read-only view of the store's current catalog and
// component space. Acquisition is O(1): the containers are shared and the
// store detaches (clones them) only on its next mutation.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cowShared = true
	return &Snapshot{
		store:     s,
		rels:      s.rels,
		relID:     s.relID,
		comps:     s.comps,
		fieldComp: s.fieldComp,
		rewrites:  s.rewrites,
	}
}

// Rewrites returns the number of in-place mutations (SetUncertain, chase
// runs) the store had seen when the snapshot was taken. Two snapshots of one
// store with equal counts differ only by object-copy-on-write catalog
// changes: a relation or component they share by pointer is unchanged.
func (sn *Snapshot) Rewrites() uint64 { return sn.rewrites }

// NumRelSlots returns the size of the relation id space: RelByID resolves
// ids below it, to nil for a dropped relation.
func (sn *Snapshot) NumRelSlots() int { return len(sn.rels) }

// CompByID returns the component with the given id, or nil.
func (sn *Snapshot) CompByID(id int32) *Component { return sn.comps[id] }

// detachLocked clones the store's containers if a snapshot shares them, so
// the next mutation leaves live snapshots untouched. Callers hold s.mu.
func (s *Store) detachLocked() {
	if !s.cowShared {
		return
	}
	s.cowShared = false
	s.rels = append([]*Relation(nil), s.rels...)
	relID := make(map[string]int32, len(s.relID))
	for k, v := range s.relID {
		relID[k] = v
	}
	s.relID = relID
	comps := make(map[int32]*Component, len(s.comps))
	for k, v := range s.comps {
		comps[k] = v
	}
	s.comps = comps
	fieldComp := make(map[FieldID]int32, len(s.fieldComp))
	for k, v := range s.fieldComp {
		fieldComp[k] = v
	}
	s.fieldComp = fieldComp
}

// Rel returns the named relation, or nil.
func (sn *Snapshot) Rel(name string) *Relation {
	id, ok := sn.relID[name]
	if !ok {
		return nil
	}
	return sn.rels[id]
}

// RelByID returns the relation with the given id, or nil.
func (sn *Snapshot) RelByID(id int32) *Relation {
	if id < 0 || int(id) >= len(sn.rels) {
		return nil
	}
	return sn.rels[id]
}

// ComponentOf returns the component defining field f, or nil.
func (sn *Snapshot) ComponentOf(f FieldID) *Component {
	cid, ok := sn.fieldComp[f]
	if !ok {
		return nil
	}
	return sn.comps[cid]
}

// EachComp visits every component of the snapshot.
func (sn *Snapshot) EachComp(fn func(*Component)) {
	for _, c := range sn.comps {
		fn(c)
	}
}

// Relations returns the names of all live relations.
func (sn *Snapshot) Relations() []string {
	out := make([]string, 0, len(sn.relID))
	for _, r := range sn.rels {
		if r != nil {
			out = append(out, r.Name)
		}
	}
	return out
}

// NumComponents returns the number of live components.
func (sn *Snapshot) NumComponents() int { return len(sn.comps) }

// Stats computes the representation statistics of one relation.
func (sn *Snapshot) Stats(rel string) Stats { return statsOf(sn, rel) }

// TotalPlaceholders returns the number of uncertain fields of a relation.
func (sn *Snapshot) TotalPlaceholders(rel string) int { return totalPlaceholders(sn, rel) }

// cloneComponent deep-copies one component (fields, rows, index).
//
//maybms:unguarded single bounded copy (MaxCompRows worlds at most), charged to the ticking operator that triggers the adoption
func cloneComponent(c *Component) *Component {
	nc := &Component{
		ID:     c.ID,
		Fields: append([]FieldID(nil), c.Fields...),
		Rows:   make([]CompRow, len(c.Rows)),
		pos:    make(map[FieldID]int, len(c.pos)),
	}
	for f, i := range c.pos {
		nc.pos[f] = i
	}
	for i, row := range c.Rows {
		nc.Rows[i] = CompRow{
			Vals:   append([]int32(nil), row.Vals...),
			Absent: row.Absent.Clone(),
			P:      row.P,
		}
	}
	return nc
}
