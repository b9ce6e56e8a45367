package engine

import (
	"fmt"
	"sort"
)

// Arena is the write side of a query: a private overlay over one Snapshot
// that holds the session's result relations and its copies of the
// components they extend. Operators (Select, Project, Rename, Join,
// Product, Union, Difference) run as Arena methods: they read base data from the
// snapshot and materialize results — template relations and extended or
// composed component rows — into the arena, never touching the shared
// store. Select, Project and Rename leave their result pending as a
// Selection, read in place over its source; it is built only when something
// asks for it as a relation (Rel, RelByID, Commit, the next operator).
// Dropping the arena (letting it go out of scope) releases every
// result at once; Commit installs the arena's relations into the parent
// store for workloads that feed one query's result into the next.
//
// Arena relations carry negative ids and arena components negative
// component ids, so they can never collide with snapshot state. When an
// operator needs a component of the snapshot — to read presence masks, to
// compose it with another, or to extend it with result-field copies — the
// arena first adopts it: deep-copies it under a fresh negative id and
// remaps all its fields. Adoption keeps component pointers stable for the
// rest of the arena's life, which the operators' phase structure relies on.
//
// An Arena is single-goroutine state: one per session/query. Concurrency
// comes from many arenas over shared snapshots.
type Arena struct {
	snap *Snapshot
	// rels holds the arena's relations; index i has id -(i+1).
	rels  []*Relation
	relID map[string]int32
	// comps holds adopted copies, compositions and their extensions, under
	// negative ids.
	comps   map[int32]*Component
	nextCID int32
	// fieldComp overlays the snapshot's field→component index: fields of
	// adopted components (including their base-relation fields) and of
	// arena relations resolve here first.
	fieldComp map[FieldID]int32
	// origins maps each arena component to the snapshot component ids it
	// covers (one for an adoption, several after compositions); shadowed is
	// their union, hiding them from EachComp.
	origins  map[int32][]int32
	shadowed map[int32]bool
	// dirty marks arena components that differ from their origins
	// (extended, composed, or trimmed); Commit installs only these.
	dirty      map[int32]bool
	scratchSeq int64
	// pending is the last operator's result while it is still a Selection;
	// its relation is registered with empty columns until materialize builds
	// it.
	pending *Selection
	// guard is the execution's cancellation/memory checkpoint (cancel.go);
	// nil means never canceled.
	guard *Guard
}

// NewArena creates an empty arena over a snapshot.
func NewArena(snap *Snapshot) *Arena {
	return &Arena{
		snap:      snap,
		relID:     make(map[string]int32),
		comps:     make(map[int32]*Component),
		fieldComp: make(map[FieldID]int32),
		origins:   make(map[int32][]int32),
		shadowed:  make(map[int32]bool),
		dirty:     make(map[int32]bool),
	}
}

// Rel returns the named relation — the arena's own first, then the
// snapshot's — or nil. A pending result is built first; Rel returns nil
// when that fails (the guard canceled it), so callers that report errors
// materialize before they look relations up.
func (a *Arena) Rel(name string) *Relation {
	if id, ok := a.relID[name]; ok {
		return a.RelByID(id)
	}
	return a.snap.Rel(name)
}

// RelByID resolves a relation id: negative ids are arena relations. A
// pending result is built first, as by Rel.
func (a *Arena) RelByID(id int32) *Relation {
	if id < 0 {
		i := int(-id - 1)
		if i >= len(a.rels) {
			return nil
		}
		if v := a.pending; v != nil && v.out.id == id && a.materialize() != nil {
			return nil
		}
		return a.rels[i]
	}
	return a.snap.RelByID(id)
}

// has reports whether the name is taken, without building a pending result.
func (a *Arena) has(name string) bool {
	_, ok := a.relID[name]
	return ok || a.snap.Rel(name) != nil
}

// Relations returns the names of the snapshot's relations plus the arena's
// own results.
func (a *Arena) Relations() []string {
	out := a.snap.Relations()
	for _, r := range a.rels {
		if r != nil {
			out = append(out, r.Name)
		}
	}
	return out
}

// NewScratch returns a fresh arena-scoped relation name for query results
// and intermediates. Scratch names carry a NUL byte, which no SQL
// identifier can contain, so they never collide with user relations.
func (a *Arena) NewScratch() string {
	a.scratchSeq++
	return fmt.Sprintf("\x00q%d", a.scratchSeq)
}

// Stats computes the representation statistics of one relation as seen
// through the arena (arena results and snapshot relations alike).
func (a *Arena) Stats(rel string) Stats { return statsOf(a, rel) }

// addRelation registers a new arena relation (the operators' result
// namespace); mirrors Store.AddRelation.
func (a *Arena) addRelation(name string, attrs []string, cols [][]int32) (*Relation, error) {
	if a.has(name) {
		return nil, fmt.Errorf("engine: relation %q already exists", name)
	}
	if err := checkColumns(attrs, cols); err != nil {
		return nil, err
	}
	r := &Relation{
		id:    int32(-len(a.rels) - 1),
		Name:  name,
		Attrs: append([]string(nil), attrs...),
		Cols:  cols,
	}
	a.rels = append(a.rels, r)
	a.relID[name] = r.id
	return r, nil
}

// RenameRelation renames an arena relation (snapshot relations are
// read-only through an arena).
func (a *Arena) RenameRelation(old, new string) error {
	id, ok := a.relID[old]
	if !ok {
		if a.snap.Rel(old) != nil {
			return fmt.Errorf("engine: relation %q is read-only through this arena", old)
		}
		return fmt.Errorf("engine: unknown relation %q", old)
	}
	if a.has(new) {
		return fmt.Errorf("engine: relation %q already exists", new)
	}
	delete(a.relID, old)
	a.relID[new] = id
	a.rels[-id-1].Name = new
	return nil
}

// DropRelation removes an arena relation and projects its fields away from
// the arena's components, in index order like Store.DropRelation.
// Snapshot relations are untouched (they are not the arena's to drop). A
// pending result is built first — it may read the relation dropped — unless
// it is the one dropped; the error is that of building it.
//
//maybms:deterministic the trimmed components' field order is committed to the store
func (a *Arena) DropRelation(name string) error {
	id, ok := a.relID[name]
	if !ok {
		return nil
	}
	if v := a.pending; v != nil && v.out.id == id {
		a.pending = nil // never built: no field of it joined a component
	} else if err := a.materialize(); err != nil {
		return err
	}
	r := a.rels[-id-1]
	for i, row := range r.unc.rows {
		for _, at := range r.unc.at(i) {
			f := FieldID{Rel: id, Row: row, Attr: at}
			cid, ok := a.fieldComp[f]
			if !ok {
				continue
			}
			delete(a.fieldComp, f)
			c := a.comps[cid]
			dropFieldFromComp(c, f)
			a.dirty[cid] = true
			if len(c.Fields) == 0 {
				// Only possible for components covering no snapshot fields
				// (origins empty): base-relation fields are never dropped
				// through an arena.
				delete(a.comps, cid)
				delete(a.dirty, cid)
				delete(a.origins, cid)
			}
		}
	}
	a.rels[-id-1] = nil
	delete(a.relID, name)
	return nil
}

// compFor resolves the component defining field f for operator use,
// adopting it into the arena first if it still lives in the snapshot. The
// returned pointer is stable for the arena's lifetime.
func (a *Arena) compFor(f FieldID) *Component {
	if cid, ok := a.fieldComp[f]; ok {
		return a.comps[cid]
	}
	c := a.snap.ComponentOf(f)
	if c == nil {
		return nil
	}
	return a.adopt(c)
}

// adopt copies a snapshot component into the arena, remapping its fields.
func (a *Arena) adopt(c *Component) *Component {
	a.nextCID--
	nc := cloneComponent(c)
	nc.ID = a.nextCID
	a.comps[nc.ID] = nc
	a.origins[nc.ID] = []int32{c.ID}
	a.shadowed[c.ID] = true
	for _, f := range nc.Fields {
		a.fieldComp[f] = nc.ID
	}
	return nc
}

// ComponentOf returns the component defining f without adopting it (the
// read-only View surface).
func (a *Arena) ComponentOf(f FieldID) *Component {
	if cid, ok := a.fieldComp[f]; ok {
		return a.comps[cid]
	}
	return a.snap.ComponentOf(f)
}

// EachComp visits the arena's components plus the snapshot components not
// shadowed by adoptions.
func (a *Arena) EachComp(fn func(*Component)) {
	for _, c := range a.comps {
		fn(c)
	}
	a.snap.EachComp(func(c *Component) {
		if !a.shadowed[c.ID] {
			fn(c)
		}
	})
}

// mergeComps composes the distinct components of the given fields into one
// arena component and returns it; the arena analogue of Store.mergeComps.
func (a *Arena) mergeComps(fields ...FieldID) (*Component, error) {
	seen := make(map[int32]bool)
	var cs []*Component
	for _, f := range fields {
		c := a.compFor(f)
		if c == nil {
			return nil, fmt.Errorf("engine: field %v has no component", f)
		}
		if !seen[c.ID] {
			seen[c.ID] = true
			cs = append(cs, c)
		}
	}
	if len(cs) == 1 {
		return cs[0], nil
	}
	merged, err := composeAll(cs)
	if err != nil {
		return nil, err
	}
	a.nextCID--
	merged.ID = a.nextCID
	a.comps[merged.ID] = merged
	a.dirty[merged.ID] = true
	var origs []int32
	for _, c := range cs {
		delete(a.comps, c.ID)
		delete(a.dirty, c.ID)
		origs = append(origs, a.origins[c.ID]...)
		delete(a.origins, c.ID)
	}
	a.origins[merged.ID] = origs
	for _, f := range merged.Fields {
		a.fieldComp[f] = merged.ID
	}
	return merged, nil
}

// Result building, shared by every operator: gather the kept columns at the
// surviving rows, then copy the placeholder fields of those rows into the
// components of their sources, under the presence masks the operator
// decided. A Selection is built the same way, by materialize.

// materialize builds the pending result, if any. Every operator
// materializes before it starts, so a result joins its components before
// the next operator composes or trims them: the components, their field
// order and their local worlds are those of building every result at once.
func (a *Arena) materialize() error {
	v := a.pending
	if v == nil {
		return nil
	}
	a.pending = nil
	if err := a.gather(v.out, v.src, v.order, v.sel); err != nil {
		return err
	}
	return v.eachRow(func(u *urow) error {
		if err := a.tick(); err != nil {
			return err
		}
		cond, keep := v.masks(u, a.compFor)
		return a.extendRow(v.out, v.src, u, v.order, cond, keep)
	})
}

// addField makes result field (row, attr) of out a placeholder defined by a
// new column of arena component c, whose value and absence at local world w
// are at(w). c must have been obtained through compFor or mergeComps, and
// (row, attr) must follow out's other placeholders in index order.
func (a *Arena) addField(out *Relation, row int32, attr uint16, c *Component, at func(w int) (int32, bool)) error {
	if c.ID >= 0 {
		return fmt.Errorf("engine: addField on non-arena component %d", c.ID)
	}
	if len(c.Fields) >= MaxCompFields {
		return fmt.Errorf("engine: component %d is full", c.ID)
	}
	f := FieldID{Rel: out.id, Row: row, Attr: attr}
	col := len(c.Fields)
	c.Fields = append(c.Fields, f)
	c.pos[f] = col
	for w := range c.Rows {
		if err := a.tick(); err != nil {
			return err
		}
		v, absent := at(w)
		c.Rows[w].Vals = append(c.Rows[w].Vals, v)
		if absent {
			c.Rows[w].Absent = c.Rows[w].Absent.Set(col)
		}
	}
	a.fieldComp[f] = c.ID
	a.dirty[c.ID] = true
	out.Cols[attr][row] = Placeholder
	out.unc.add(row, attr)
	return nil
}

// presence is a per-local-world mask over one component.
type presence struct {
	comp *Component
	pass []bool
}

func (m presence) fails(c *Component, w int) bool { return m.comp == c && !m.pass[w] }

// gather fills the columns of out with the columns order of r gathered at
// the source rows sel (nil = every row), a batch of guardPeriod rows at a
// time.
func (a *Arena) gather(out, r *Relation, order []uint16, sel []int32) error {
	m := len(sel)
	if sel == nil {
		m = r.NumRows()
	}
	cols := out.Cols
	for i := range order {
		cols[i] = make([]int32, m)
	}
	for lo := 0; lo < m; lo += guardPeriod {
		hi := min(lo+guardPeriod, m)
		if err := a.guard.tickN(hi - lo); err != nil {
			return err
		}
		for i, at := range order {
			src, dst := r.Cols[at], cols[i][lo:hi]
			if sel == nil {
				copy(dst, src[lo:hi])
				continue
			}
			for k, row := range sel[lo:hi] {
				dst[k] = src[row]
			}
		}
	}
	return nil
}

// extendRow copies the kept placeholder fields of source row u.src of r into
// result row u.j of out, whose attributes are order. Each copy joins its
// field's component, absent where the field is, where keep fails and — for
// the attributes in u.inSel — where cond fails. When no copy carries keep,
// the first attribute becomes a placeholder holding its certain value,
// absent where keep fails.
func (a *Arena) extendRow(out, r *Relation, u *urow, order []uint16, cond, keep presence) error {
	carried := false
	for di, at := range order {
		if !containsAttr(u.attrs, at) {
			continue
		}
		c := cond
		if !containsAttr(u.inSel, at) {
			c = presence{}
		}
		if err := a.extendField(out, FieldID{Rel: r.id, Row: u.src, Attr: at}, u.j, uint16(di), c, keep); err != nil {
			return err
		}
		carried = true
	}
	if carried || keep.comp == nil {
		return nil
	}
	v := out.Cols[0][u.j]
	return a.addField(out, u.j, 0, keep.comp, func(w int) (int32, bool) { return v, !keep.pass[w] })
}

// extendField makes result field (row, attr) of out a copy of placeholder
// field src, absent where src is and where m1 or m2 fails.
func (a *Arena) extendField(out *Relation, src FieldID, row int32, attr uint16, m1, m2 presence) error {
	c := a.compFor(src)
	col := c.Pos(src)
	return a.addField(out, row, attr, c, func(w int) (int32, bool) {
		cw := &c.Rows[w]
		return cw.Vals[col], cw.IsAbsent(col) || m1.fails(c, w) || m2.fails(c, w)
	})
}

// Commit installs the arena's relations and modified components into the
// parent store: relations get fresh store ids, dirty components replace
// the snapshot components they cover, and the store's indexes are rewritten
// under the store's copy-on-write discipline — live snapshots keep reading
// their frozen view. Commit fails, leaving the store untouched, if a
// relation name is taken or the involved catalog entries changed since the
// snapshot was taken. The arena must not be used after Commit.
func (a *Arena) Commit() error {
	if err := a.materialize(); err != nil {
		return err
	}
	s := a.snap.store
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range a.rels {
		if r == nil {
			continue
		}
		if _, dup := s.relID[r.Name]; dup {
			return fmt.Errorf("engine: relation %q already exists", r.Name)
		}
	}
	dirty := make([]int32, 0, len(a.dirty))
	for cid := range a.dirty {
		dirty = append(dirty, cid)
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] > dirty[j] }) // creation order: -1, -2, ...
	for _, cid := range dirty {
		for _, orig := range a.origins[cid] {
			if s.comps[orig] != a.snap.comps[orig] {
				return fmt.Errorf("engine: commit conflicts with a concurrent change to component %d", orig)
			}
		}
		for _, f := range a.comps[cid].Fields {
			if f.Rel >= 0 && (int(f.Rel) >= len(s.rels) || s.rels[f.Rel] == nil || s.rels[f.Rel] != a.snap.RelByID(f.Rel)) {
				return fmt.Errorf("engine: commit conflicts with a concurrent change to relation %d", f.Rel)
			}
		}
	}
	s.detachLocked()
	relMap := make(map[int32]int32, len(a.rels))
	for i, r := range a.rels {
		if r == nil {
			continue
		}
		nid := int32(len(s.rels))
		relMap[int32(-i-1)] = nid
		r.id = nid
		s.rels = append(s.rels, r)
		s.relID[r.Name] = nid
	}
	for _, cid := range dirty {
		c := a.comps[cid]
		for _, orig := range a.origins[cid] {
			delete(s.comps, orig)
		}
		s.nextCID++
		c.ID = s.nextCID
		for i, f := range c.Fields {
			if f.Rel < 0 {
				f.Rel = relMap[f.Rel]
				c.Fields[i] = f
			}
		}
		c.pos = make(map[FieldID]int, len(c.Fields))
		for i, f := range c.Fields {
			c.pos[f] = i
		}
		s.comps[c.ID] = c
		for _, f := range c.Fields {
			s.fieldComp[f] = c.ID
		}
	}
	a.snap = nil // poison: the arena is spent
	return nil
}
