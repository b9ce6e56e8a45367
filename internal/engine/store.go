// Package engine is the scalable UWSDT query engine of Sections 5 and 9:
// the role PostgreSQL plays under the paper's MayBMS prototype. Certain data
// lives in columnar int32 template relations; uncertain fields are '?'
// placeholders backed by a shared component store. Multiple relations — base
// data and query results — share one component space, so subquery results
// stay correlated with their inputs.
//
// Values are non-negative integers (the census data is exclusively
// multiple-choice codes); the sentinel Placeholder marks uncertain template
// fields. A tuple is absent from a world when any of its fields has no value
// at the chosen local world of its component (the UWSDT encoding of worlds
// of different sizes).
package engine

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
)

// Placeholder is the template sentinel for an uncertain field. All real
// values must be ≥ 0.
const Placeholder int32 = -1

// probTolerance is how far a component's probabilities may sum from 1 where
// the engine takes them from outside: SetUncertain, InstallRelation,
// ImportState and DeriveStore refuse anything further off.
const probTolerance = 1e-6

// FieldID identifies one field of one tuple of one relation in the store.
type FieldID struct {
	Rel  int32  // relation id (store catalog index)
	Row  int32  // 0-based row index in the template
	Attr uint16 // 0-based attribute index
}

// CompRow is one local world of a component: a value for every field plus a
// presence bit per field (a cleared bit means the field's tuple is absent
// from worlds choosing this local world), and the local world's probability.
type CompRow struct {
	Vals   []int32
	Absent Bitset
	P      float64
}

// IsAbsent reports whether field column i has no value in this local world.
func (r CompRow) IsAbsent(i int) bool { return r.Absent.Get(i) }

// MaxCompFields bounds the number of fields a single component can hold
// (including the result-field copies query operators extend it with). The
// paper measures 1–4 placeholders per component in practice (Figure 28);
// hitting this limit indicates a pathological workload and surfaces as an
// error rather than silent corruption.
const MaxCompFields = 1 << 16

// Component is one factor of the decomposition, shared by all relations
// whose fields it defines.
type Component struct {
	ID     int32
	Fields []FieldID
	Rows   []CompRow
	pos    map[FieldID]int
	// born is the store epoch that created the object (see Store.epoch);
	// sharedCells marks a copy that shares Fields, pos and its rows' value
	// and absence arrays with the object it was copied from (ownComp): only
	// its Rows slice is its own.
	born        *epoch
	sharedCells bool
}

// Pos returns the column index of field f, or -1. A component of a few
// fields, or one without a field map (the tuple-level view's restrictions),
// is scanned.
func (c *Component) Pos(f FieldID) int {
	if c.pos == nil || len(c.Fields) <= 8 {
		return slices.Index(c.Fields, f)
	}
	if i, ok := c.pos[f]; ok {
		return i
	}
	return -1
}

// Size returns the number of local worlds.
func (c *Component) Size() int { return len(c.Rows) }

// Arity returns the number of fields.
func (c *Component) Arity() int { return len(c.Fields) }

// TotalP sums the local world probabilities.
//
//maybms:unguarded O(worlds) scalar sum used by update-path validation and renormalization
func (c *Component) TotalP() float64 {
	var s float64
	for _, r := range c.Rows {
		s += r.P
	}
	return s
}

// Relation is a columnar template relation: Cols[a][row] is the value of
// attribute a, or Placeholder when the field is uncertain.
type Relation struct {
	id    int32
	Name  string
	Attrs []string
	Cols  [][]int32
	// unc indexes the placeholder cells by row (uindex.go).
	unc uncIndex
	// absence is false when no field of the relation is absent in any local
	// world. Only addField writes absent bits, on a result field it creates,
	// and it sets the flag; every other mutation moves or removes bits, so a
	// set flag may be stale but a clear one never is. Copies of the relation
	// copy it, ImportState and InstallRelation compute it from the components
	// they install, and it is written only while the relation is private to
	// its arena or store epoch.
	absence bool
	// born is the store epoch that created the object (see Store.epoch);
	// sharedCols marks the columns it still shares with the object it was
	// copied from (none for a relation built from scratch).
	born       *epoch
	sharedCols Bitset
	// posts holds one lazily built value posting per column (posting.go),
	// nil for arena results; a copy sharing a column shares its slot.
	posts []*postSlot
}

// NumRows returns the number of template rows.
func (r *Relation) NumRows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return len(r.Cols[0])
}

// AttrIndex returns the index of the named attribute, or an error.
func (r *Relation) AttrIndex(name string) (uint16, error) {
	for i, a := range r.Attrs {
		if a == name {
			return uint16(i), nil
		}
	}
	return 0, fmt.Errorf("engine: relation %s has no attribute %q", r.Name, name)
}

// UncertainRows returns the number of rows with at least one placeholder.
func (r *Relation) UncertainRows() int { return len(r.unc.rows) }

// RecordsAbsence reports whether some field of r may be absent in some local
// world. False guarantees that none is: a projection then never probes r's
// components for absence to propagate.
func (r *Relation) RecordsAbsence() bool { return r.absence }

// epoch names one interval between two snapshots of a store. Epochs are
// compared by address, so an object one store created is never mistaken for
// another's (derived stores share relations and components).
type epoch struct{ _ byte }

// Store holds the template relations and the shared component store. Reads
// that must be safe against concurrent catalog writers go through Snapshot
// (see snapshot.go); writers serialize externally (the session API holds
// one writer at a time) and the store's own mutex only coordinates snapshot
// acquisition with the copy-on-write detach.
type Store struct {
	// mu guards the epoch and the container pointers during Snapshot,
	// Rollback, detachLocked and Commit. It is not a general read/write
	// lock: direct reads of a store that is being written concurrently are
	// the caller's responsibility (use snapshots).
	mu sync.Mutex
	// epoch is the one ownership rule of every mutator: a container,
	// relation or component stamped with the current epoch was created since
	// the last Snapshot, so no snapshot can reach it and it is edited in
	// place; anything else is replaced by a copy before it changes. Snapshot
	// starts a new epoch; detached is the epoch that copied the containers.
	epoch    *epoch
	detached *epoch

	// rels holds the relations by id; a DROP leaves its slot nil until the
	// next new relation takes it (newRelID).
	rels  []*Relation
	relID map[string]int32
	// idx holds the components and maps every uncertain field to its
	// component (index.go).
	idx     *compIndex
	nextCID int32
	// scratchSeq numbers the scratch relations handed out by NewScratch.
	scratchSeq int64
}

// NewStore creates an empty store.
func NewStore() *Store {
	e := new(epoch)
	return &Store{
		epoch:    e,
		detached: e,
		relID:    make(map[string]int32),
		idx:      new(compIndex),
	}
}

// AddRelation registers a new relation with the given columns (column-major;
// all columns must have equal length and non-negative values). The store
// takes ownership of cols.
func (s *Store) AddRelation(name string, attrs []string, cols [][]int32) (*Relation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detachLocked()
	if _, dup := s.relID[name]; dup {
		return nil, fmt.Errorf("engine: relation %q already exists", name)
	}
	if err := checkColumns(attrs, cols); err != nil {
		return nil, err
	}
	r := &Relation{
		id:    s.newRelID(),
		Name:  name,
		Attrs: append([]string(nil), attrs...),
		Cols:  cols,
		born:  s.epoch,
		posts: newPostSlots(len(cols)),
	}
	s.setRel(r)
	return r, nil
}

// newRelID returns the id a new relation takes: the lowest slot a dropped
// relation left nil, else one past the last, so the slot count is bounded by
// the peak number of live relations. It depends on the committed history
// alone, so a live commit, WAL replay and a snapshot restore (which keeps
// nil slots) assign equal ids. No reader can meet the new relation in the
// old one's slot: a snapshot, and every arena or cursor over it, resolves
// ids through its own frozen rels slice; DropRelation removed the old
// relation's fields from the component index; Arena.Commit's conflict
// check and the shard layout's holds compare *Relation pointers, not ids;
// compiled plans revalidate by name and attribute list; value postings live
// on the Relation. Callers hold s.mu and have detached.
func (s *Store) newRelID() int32 {
	if i := slices.Index(s.rels, nil); i >= 0 {
		return int32(i)
	}
	return int32(len(s.rels))
}

// setRel registers r under the id newRelID gave it.
func (s *Store) setRel(r *Relation) {
	if int(r.id) == len(s.rels) {
		s.rels = append(s.rels, nil)
	}
	s.rels[r.id] = r
	s.relID[r.Name] = r.id
}

// checkColumns reports a column count that differs from the attribute count
// or columns of unequal length.
func checkColumns(attrs []string, cols [][]int32) error {
	if len(cols) != len(attrs) {
		return fmt.Errorf("engine: %d columns for %d attributes", len(cols), len(attrs))
	}
	for i, c := range cols {
		if len(c) != len(cols[0]) {
			return fmt.Errorf("engine: column %s has %d rows, want %d", attrs[i], len(c), len(cols[0]))
		}
	}
	return nil
}

// NewScratch returns a fresh relation name for query intermediates and
// session-scoped results. Scratch names carry a NUL byte, which no SQL
// identifier (and no sane user relation name) can contain, so they never
// collide with user relations — or with each other, thanks to the sequence
// number.
func (s *Store) NewScratch() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scratchSeq++
	return fmt.Sprintf("\x00q%d", s.scratchSeq)
}

// RenameRelation renames a relation in the catalog. Components and field
// references are untouched: they key relations by id, not by name. The
// relation object is replaced, not edited, so live snapshots keep the old
// name.
func (s *Store) RenameRelation(old, new string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detachLocked()
	id, ok := s.relID[old]
	if !ok {
		return fmt.Errorf("engine: unknown relation %q", old)
	}
	if _, dup := s.relID[new]; dup {
		return fmt.Errorf("engine: relation %q already exists", new)
	}
	delete(s.relID, old)
	s.relID[new] = id
	nr := *s.rels[id]
	nr.Name = new
	s.rels[id] = &nr
	return nil
}

// Rel returns the named relation, or nil.
func (s *Store) Rel(name string) *Relation {
	id, ok := s.relID[name]
	if !ok {
		return nil
	}
	return s.rels[id]
}

// Relations returns the names of all live relations.
func (s *Store) Relations() []string {
	out := make([]string, 0, len(s.relID))
	for _, r := range s.rels {
		if r != nil {
			out = append(out, r.Name)
		}
	}
	return out
}

// ComponentOf returns the component defining field f, or nil.
func (s *Store) ComponentOf(f FieldID) *Component { return s.idx.componentOf(f) }

// NumComponents returns the number of live components.
func (s *Store) NumComponents() int { return s.idx.ncomps }

// SetUncertain replaces the field (rel, row, attr) by an or-set of values
// with probabilities (nil probs means uniform), creating a fresh component.
// The field must currently be certain, and the probabilities finite,
// non-negative and summing to 1 within probTolerance. The relation is
// replaced, not edited (see markUncertain), so live snapshots keep the
// certain field.
func (s *Store) SetUncertain(rel string, row int, attr string, values []int32, probs []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detachLocked()
	r := s.Rel(rel)
	if r == nil {
		return fmt.Errorf("engine: unknown relation %q", rel)
	}
	ai, err := r.AttrIndex(attr)
	if err != nil {
		return err
	}
	if row < 0 || row >= r.NumRows() {
		return fmt.Errorf("engine: row %d out of range", row)
	}
	if r.Cols[ai][row] == Placeholder {
		return fmt.Errorf("engine: field (%s, %d, %s) already uncertain", rel, row, attr)
	}
	if len(values) == 0 {
		return fmt.Errorf("engine: empty or-set")
	}
	if probs != nil {
		if len(probs) != len(values) {
			return fmt.Errorf("engine: %d probabilities for %d values", len(probs), len(values))
		}
		var mass float64
		for _, p := range probs {
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return fmt.Errorf("engine: invalid probability %g in or-set", p)
			}
			mass += p
		}
		if math.Abs(mass-1) > probTolerance {
			return fmt.Errorf("engine: or-set probabilities sum to %g, want 1", mass)
		}
	}
	for _, v := range values {
		if v < 0 {
			return fmt.Errorf("engine: negative value %d in or-set", v)
		}
	}
	f := FieldID{Rel: r.id, Row: int32(row), Attr: ai}
	c := s.newComponent([]FieldID{f})
	for i, v := range values {
		p := 1 / float64(len(values))
		if probs != nil {
			p = probs[i]
		}
		c.Rows = append(c.Rows, CompRow{Vals: []int32{v}, P: p})
	}
	r = s.markUncertain(r, int32(row), ai)
	r.unc.insert(int32(row), ai)
	return nil
}

// markUncertain turns the certain template cell (row, ai) of r into a
// placeholder — the caller indexes it — and returns the object that now
// holds relation r.id: r itself when the current epoch created it, else a
// copy installed in its place. The copy has its own uncertainty index and
// shares r's columns, and their postings, until one is written; the column
// copied for the write gets a fresh posting slot. A column written in place
// was created or copied in this epoch, so no snapshot reader has built its
// posting.
func (s *Store) markUncertain(r *Relation, row int32, ai uint16) *Relation {
	if r.born != s.epoch {
		nr := *r
		nr.born = s.epoch
		nr.Cols = slices.Clone(r.Cols)
		nr.unc = r.unc.clone()
		nr.posts = slices.Clone(r.posts)
		nr.sharedCols = nil
		for a := range nr.Cols {
			nr.sharedCols = nr.sharedCols.Set(a)
		}
		r = &nr
		s.rels[r.id] = r
	}
	if r.sharedCols.Get(int(ai)) {
		r.Cols[ai] = slices.Clone(r.Cols[ai])
		r.sharedCols.Clear(int(ai))
		if r.posts != nil {
			r.posts[ai] = new(postSlot)
		}
	}
	r.Cols[ai][row] = Placeholder
	return r
}

// ownComp returns component c for a rewrite of its local worlds: c itself
// when the current epoch created it, else a copy installed in its place
// under the same id, with its own Rows (fields and values stay shared).
func (s *Store) ownComp(c *Component) *Component {
	if c.born == s.epoch {
		return c
	}
	nc := &Component{ID: c.ID, Fields: c.Fields, Rows: slices.Clone(c.Rows), pos: c.pos, born: s.epoch, sharedCells: true}
	s.idx.putComp(s.epoch, nc)
	return nc
}

// ownCells returns component c for an edit of its fields and values: c
// itself when the current epoch created it with cells of its own, else a
// deep copy installed in its place under the same id.
func (s *Store) ownCells(c *Component) *Component {
	if c.born == s.epoch && !c.sharedCells {
		return c
	}
	nc := cloneComponent(c)
	nc.born = s.epoch
	s.idx.putComp(s.epoch, nc)
	return nc
}

func (s *Store) newComponent(fields []FieldID) *Component {
	s.nextCID++
	c := &Component{ID: s.nextCID, Fields: fields, pos: make(map[FieldID]int, len(fields)), born: s.epoch}
	for i, f := range fields {
		c.pos[f] = i
		s.idx.putField(s.epoch, f, c.ID)
	}
	s.idx.putComp(s.epoch, c)
	return c
}

// mergeComps composes the distinct components of the given fields into one
// and returns it. Fails if the merged component would exceed MaxCompFields.
func (s *Store) mergeComps(fields ...FieldID) (*Component, error) {
	seen := make(map[int32]bool)
	var cs []*Component
	for _, f := range fields {
		cid, ok := s.idx.compOf(f)
		if !ok {
			return nil, fmt.Errorf("engine: field %v has no component", f)
		}
		if !seen[cid] {
			seen[cid] = true
			cs = append(cs, s.idx.comp(cid))
		}
	}
	if len(cs) == 1 {
		return cs[0], nil
	}
	merged, err := composeAll(cs)
	if err != nil {
		return nil, err
	}
	s.nextCID++
	merged.ID = s.nextCID
	merged.born = s.epoch
	s.idx.putComp(s.epoch, merged)
	for _, c := range cs {
		s.idx.delComp(s.epoch, c.ID)
	}
	for _, f := range merged.Fields {
		s.idx.putField(s.epoch, f, merged.ID)
	}
	return merged, nil
}

// composeAll composes two or more components into one fresh component,
// compressing after every step, or fails if the result would exceed
// MaxCompFields or MaxCompRows.
func composeAll(cs []*Component) (*Component, error) {
	total := 0
	for _, c := range cs {
		total += len(c.Fields)
	}
	if total > MaxCompFields {
		return nil, fmt.Errorf("engine: composing %d fields exceeds limit %d", total, MaxCompFields)
	}
	merged := cs[0]
	for _, c := range cs[1:] {
		if len(merged.Rows)*len(c.Rows) > MaxCompRows {
			return nil, fmt.Errorf("engine: composing components would exceed %d local worlds (the exponential join blow-up of Section 4); rewrite the query or lower the density", MaxCompRows)
		}
		merged = composeComponents(merged, c)
		compressComponent(merged)
	}
	return merged, nil
}

// composeComponents builds the product component of a and b (Figure 20's
// composition): one local world per pair, probabilities multiplied.
//
//maybms:unguarded update-path composition under the store lock, fail-fast bounded by MaxCompRows
func composeComponents(a, b *Component) *Component {
	fields := append(append([]FieldID(nil), a.Fields...), b.Fields...)
	m := &Component{Fields: fields, pos: make(map[FieldID]int, len(fields))}
	for i, f := range fields {
		m.pos[f] = i
	}
	m.Rows = make([]CompRow, 0, len(a.Rows)*len(b.Rows))
	shift := len(a.Fields)
	for _, ra := range a.Rows {
		for _, rb := range b.Rows {
			vals := make([]int32, 0, len(ra.Vals)+len(rb.Vals))
			vals = append(vals, ra.Vals...)
			vals = append(vals, rb.Vals...)
			absent := ra.Absent.Clone()
			absent = absent.OrShifted(rb.Absent, len(b.Fields), shift)
			m.Rows = append(m.Rows, CompRow{
				Vals:   vals,
				Absent: absent,
				P:      ra.P * rb.P,
			})
		}
	}
	return m
}

// MaxCompRows bounds the number of local worlds a composition may produce.
// Compositions beyond it indicate the inherent exponential blow-up of joins
// on WSDs (Section 4); failing fast beats exhausting memory.
const MaxCompRows = 1 << 21

// compressComponent merges local worlds with identical values and absence
// marks, summing their probabilities (the compress normalization of
// Figure 20). Composition products shrink dramatically: fields restricted
// by earlier selections contribute their distinct surviving states rather
// than their original local-world count.
//
//maybms:unguarded update-path normalization of a composition product, bounded by MaxCompRows
func compressComponent(c *Component) {
	if len(c.Rows) < 2 {
		return
	}
	type key string
	seen := make(map[key]int, len(c.Rows))
	buf := make([]byte, 0, 8*len(c.Fields)+8)
	out := c.Rows[:0]
	for _, row := range c.Rows {
		buf = buf[:0]
		for i, v := range row.Vals {
			buf = appendFieldKey(buf, v, row.Absent.Get(i))
		}
		k := key(buf)
		if j, ok := seen[k]; ok {
			out[j].P += row.P
			continue
		}
		seen[k] = len(out)
		out = append(out, row)
	}
	c.Rows = out
}

// absentCols returns the columns of c that are absent in some local world.
//
//maybms:unguarded one bounded pass over a component's absence words, on the update and validation paths
func absentCols(c *Component) Bitset {
	var cols Bitset
	for _, row := range c.Rows {
		for len(cols) < len(row.Absent) {
			cols = append(cols, 0)
		}
		for w, word := range row.Absent {
			cols[w] |= word
		}
	}
	return cols
}

// appendFieldKey appends the canonical 4-byte encoding of one field state —
// the value, or a -2 absent marker distinct from every real value (≥ 0) and
// from Placeholder — used to merge indistinguishable local worlds.
func appendFieldKey(buf []byte, v int32, absent bool) []byte {
	if absent {
		v = -2
	}
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Clone deep-copies the store: templates, components and indexes. Used by
// benchmarks to re-run destructive operations (chase) from one prepared
// state, and generally to branch a world-set.
//
//maybms:unguarded deep copy on the update path (test fixtures, import); no query guard exists
func (s *Store) Clone() *Store {
	e := new(epoch)
	idx := *s.idx
	c := &Store{
		epoch:      e,
		detached:   e,
		rels:       make([]*Relation, len(s.rels)),
		relID:      maps.Clone(s.relID),
		idx:        &idx,
		nextCID:    s.nextCID,
		scratchSeq: s.scratchSeq,
	}
	for i, r := range s.rels {
		if r == nil {
			continue
		}
		nr := &Relation{
			id:      r.id,
			Name:    r.Name,
			Attrs:   slices.Clone(r.Attrs),
			Cols:    make([][]int32, len(r.Cols)),
			unc:     r.unc.clone(),
			absence: r.absence,
			born:    e,
			posts:   newPostSlots(len(r.Cols)),
		}
		for j, col := range r.Cols {
			nr.Cols[j] = slices.Clone(col)
		}
		c.rels[i] = nr
	}
	for k := range idx.comps {
		p := &idx.comps[k]
		ents := make([]compEnt, len(p.ents))
		for i, ce := range p.ents {
			nc := cloneComponent(ce.c)
			nc.born = e
			ents[i] = compEnt{ce.id, nc}
		}
		p.ents, p.born = ents, e
	}
	for k := range idx.fields {
		p := &idx.fields[k]
		p.ents, p.born = slices.Clone(p.ents), e
	}
	return c
}

// DropRelation removes a relation and projects its fields away from the
// component store (components left with no fields are deleted). A
// component a snapshot may hold is replaced by a trimmed copy rather than
// edited in place (ownCells), so live snapshots keep their frozen view; one
// the current epoch created is trimmed in place. Fields leave in index order
// (ascending row, then attribute): the swap-removal makes the surviving field
// order depend on it.
//
//maybms:deterministic the trimmed components' field order reaches snapshot bytes and shard fingerprints
func (s *Store) DropRelation(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detachLocked()
	id, ok := s.relID[name]
	if !ok {
		return
	}
	r := s.rels[id]
	for i, row := range r.unc.rows {
		for _, a := range r.unc.at(i) {
			f := FieldID{Rel: id, Row: row, Attr: a}
			cid, ok := s.idx.compOf(f)
			if !ok {
				continue
			}
			s.idx.delField(s.epoch, f)
			c := s.ownCells(s.idx.comp(cid))
			dropFieldFromComp(c, f)
			if len(c.Fields) == 0 {
				s.idx.delComp(s.epoch, cid)
			}
		}
	}
	s.rels[id] = nil // free for the next new relation (newRelID)
	delete(s.relID, name)
}

//maybms:unguarded DDL-path column removal under the store lock
func dropFieldFromComp(c *Component, f FieldID) {
	i, ok := c.pos[f]
	if !ok {
		return
	}
	last := len(c.Fields) - 1
	// Swap-remove the column, fixing the bitmaps.
	c.Fields[i] = c.Fields[last]
	c.Fields = c.Fields[:last]
	delete(c.pos, f)
	if i != last {
		c.pos[c.Fields[i]] = i
	}
	for r := range c.Rows {
		row := &c.Rows[r]
		lastBit := row.Absent.Get(last)
		row.Vals[i] = row.Vals[last]
		row.Vals = row.Vals[:last]
		// Move the last column's bit into position i.
		row.Absent = row.Absent.Assign(i, lastBit)
		row.Absent.Clear(last)
	}
}

// renormalize rescales a component's probabilities to sum to 1; it returns
// false if the total mass is zero.
//
//maybms:unguarded update-path rescale, one bounded pass over a component
func renormalize(c *Component) bool {
	total := c.TotalP()
	if total <= 0 || math.IsNaN(total) {
		return false
	}
	for i := range c.Rows {
		c.Rows[i].P /= total
	}
	return true
}
