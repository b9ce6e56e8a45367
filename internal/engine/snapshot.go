package engine

import (
	"maps"
	"slices"
)

// This file implements the read side of the store's concurrency model: an
// immutable Snapshot of the catalog and component space, produced in O(1) by
// copy-on-write. Queries run against snapshots and write their results into
// per-session Arenas (arena.go), so independent SELECTs never contend on the
// store and never mutate shared components.
//
// The contract has two parts:
//
//   - Snapshot() is O(1): it hands out the store's live containers and
//     starts a new store epoch. The first mutation afterwards detaches: it
//     copies the relation slice, the name map and the root of the component
//     index (index.go), not the index's parts, relations or components.
//     A write then copies only the index parts it touches, each once per
//     epoch, so live snapshots keep reading a consistent frozen view and a
//     commit costs what it touches, not the size of the store.
//   - Every store mutator (AddRelation, InstallRelation, RenameRelation,
//     DropRelation, SetUncertain, the chase, Arena.Commit) is object-COW: a
//     relation, column or component a snapshot may hold is replaced by a
//     fresh object, never edited; only objects created in the current epoch
//     — which no snapshot can reach — are edited in place. Mutators are
//     therefore safe to run concurrently with snapshot readers (one writer
//     at a time; the session API serializes writers), two snapshots of one
//     store differ exactly in the objects they do not share by pointer, and
//     Rollback to a snapshot undoes everything since in O(1).

// Snapshot is a read-only, point-in-time view of a store's catalog and
// component space. It is safe for concurrent use by any number of readers
// and stays valid — frozen at its acquisition point — across subsequent
// catalog writes. Obtain one with Store.Snapshot, run operators through a
// NewArena over it.
type Snapshot struct {
	store *Store
	rels  []*Relation
	relID map[string]int32
	idx   *compIndex
	// The id sequences at acquisition: ahead of everything the view holds.
	nextCID    int32
	scratchSeq int64
}

// Snapshot returns a read-only view of the store's current catalog and
// component space. Acquisition is O(1): the containers are shared and the
// store detaches only on its next mutation.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = new(epoch)
	return &Snapshot{
		store:      s,
		rels:       s.rels,
		relID:      s.relID,
		idx:        s.idx,
		nextCID:    s.nextCID,
		scratchSeq: s.scratchSeq,
	}
}

// Rollback returns the store to the state sn captured — catalog, component
// space and component id sequence — discarding every mutation since, in
// O(1): the mutators replaced what sn holds instead of editing it. sn must
// be a snapshot of this store; it stays valid.
func (s *Store) Rollback(sn *Snapshot) {
	if sn.store != s {
		panic("engine: Rollback to a snapshot of another store")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rels, s.relID, s.idx, s.nextCID = sn.rels, sn.relID, sn.idx, sn.nextCID
	s.epoch = new(epoch) // the containers are sn's again: detach before writing
}

// NumRelSlots returns the size of the relation id space: RelByID resolves
// ids below it, to nil for a dropped relation.
func (sn *Snapshot) NumRelSlots() int { return len(sn.rels) }

// CompByID returns the component with the given id, or nil.
func (sn *Snapshot) CompByID(id int32) *Component { return sn.idx.comp(id) }

// detachLocked copies the store's containers if a snapshot shares them, so
// the next mutation leaves live snapshots untouched: the relation slice and
// name map, and the component index's root, whose parts are copied later,
// one at a time, by the writes that touch them. Callers hold s.mu.
func (s *Store) detachLocked() {
	if s.detached == s.epoch {
		return
	}
	s.detached = s.epoch
	s.rels = slices.Clone(s.rels)
	s.relID = maps.Clone(s.relID)
	idx := *s.idx
	s.idx = &idx
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
func (sn *Snapshot) ComponentOf(f FieldID) *Component { return sn.idx.componentOf(f) }

// EachComp visits every component of the snapshot.
func (sn *Snapshot) EachComp(fn func(*Component)) { sn.idx.eachComp(fn) }

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
func (sn *Snapshot) NumComponents() int { return sn.idx.ncomps }

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
		Fields: slices.Clone(c.Fields),
		Rows:   make([]CompRow, len(c.Rows)),
		pos:    maps.Clone(c.pos),
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
