package engine

import "slices"

// This file is the store's component index: the components by id, and the
// component defining every uncertain field. It is split into a fixed fan-out
// of parts so that copy-on-write stays proportional to what a write touches,
// not to the store:
//
//   - a Snapshot shares the store's index;
//   - the store's first write after it copies only the root, the part
//     headers (detachLocked);
//   - a write copies a part the first time it touches it in an epoch and
//     stamps the copy with the epoch, the born rule relations and components
//     follow: a part born in the current epoch is edited in place.
//
// A part is a slice sorted by key and searched by bisection, so copying one
// is a single allocation. Components go to a part by their id's block of
// consecutive ids, round robin (ids are handed out in sequence, so the parts
// fill evenly); fields by a multiplicative hash of their relation and row
// block.

const (
	indexBits  = 8
	indexParts = 1 << indexBits
	// blockBits groups consecutive component ids, and consecutive rows of a
	// relation, into one part: a commit's fresh components take consecutive
	// ids, and a result relation's fields fill consecutive rows, so the
	// parts a commit and the DROP of its result touch stay few.
	blockBits = 3
)

type compEnt struct {
	id int32
	c  *Component
}

type fieldEnt struct {
	f   FieldID
	cid int32
}

type compPart struct {
	born *epoch
	ents []compEnt // ascending id
}

type fieldPart struct {
	born *epoch
	ents []fieldEnt // ascending (Rel, Row, Attr)
}

// compIndex is the root: the part headers and the entry counts. Copying it
// is the whole cost of detaching from a snapshot.
type compIndex struct {
	comps   [indexParts]compPart
	fields  [indexParts]fieldPart
	ncomps  int
	nfields int
}

func compPartOf(id int32) int { return int(uint32(id)>>blockBits) & (indexParts - 1) }

func fieldPartOf(f FieldID) int {
	k := uint64(uint32(f.Row)>>blockBits) | uint64(uint32(f.Rel))<<32
	return int((k * 0x9E3779B97F4A7C15) >> (64 - indexBits))
}

func fieldBefore(a, b FieldID) bool {
	if a.Rel != b.Rel {
		return a.Rel < b.Rel
	}
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Attr < b.Attr
}

// search returns the position of id in p, or where it would be inserted.
func (p *compPart) search(id int32) (int, bool) {
	lo, hi := 0, len(p.ents)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.ents[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(p.ents) && p.ents[lo].id == id
}

// search returns the position of f in p, or where it would be inserted.
func (p *fieldPart) search(f FieldID) (int, bool) {
	lo, hi := 0, len(p.ents)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if fieldBefore(p.ents[m].f, f) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(p.ents) && p.ents[lo].f == f
}

// own returns a copy of ents with room to grow: the copy-on-write step of a
// part's first write in an epoch.
func own[E any](ents []E) []E {
	out := make([]E, len(ents), len(ents)+len(ents)/4+1)
	copy(out, ents)
	return out
}

func (x *compIndex) ownComps(e *epoch, i int) *compPart {
	p := &x.comps[i]
	if p.born != e {
		p.ents, p.born = own(p.ents), e
	}
	return p
}

func (x *compIndex) ownFields(e *epoch, i int) *fieldPart {
	p := &x.fields[i]
	if p.born != e {
		p.ents, p.born = own(p.ents), e
	}
	return p
}

// comp returns the component with the given id, or nil.
func (x *compIndex) comp(id int32) *Component {
	p := &x.comps[compPartOf(id)]
	if i, ok := p.search(id); ok {
		return p.ents[i].c
	}
	return nil
}

// compOf returns the id of the component defining f.
func (x *compIndex) compOf(f FieldID) (int32, bool) {
	p := &x.fields[fieldPartOf(f)]
	if i, ok := p.search(f); ok {
		return p.ents[i].cid, true
	}
	return 0, false
}

// componentOf returns the component defining f, or nil.
func (x *compIndex) componentOf(f FieldID) *Component {
	if cid, ok := x.compOf(f); ok {
		return x.comp(cid)
	}
	return nil
}

// putComp registers c under its id, replacing the component of that id if
// there is one; it reports whether the id was new. e is the writing epoch.
func (x *compIndex) putComp(e *epoch, c *Component) bool {
	k := compPartOf(c.ID)
	i, found := x.comps[k].search(c.ID)
	p := x.ownComps(e, k)
	if found {
		p.ents[i].c = c
		return false
	}
	p.ents = slices.Insert(p.ents, i, compEnt{c.ID, c})
	x.ncomps++
	return true
}

// delComp removes the component with the given id, if registered.
func (x *compIndex) delComp(e *epoch, id int32) {
	k := compPartOf(id)
	if i, found := x.comps[k].search(id); found {
		p := x.ownComps(e, k)
		p.ents = slices.Delete(p.ents, i, i+1)
		x.ncomps--
	}
}

// putField maps f to component cid; it reports whether f was new.
func (x *compIndex) putField(e *epoch, f FieldID, cid int32) bool {
	k := fieldPartOf(f)
	i, found := x.fields[k].search(f)
	if found && x.fields[k].ents[i].cid == cid {
		return false
	}
	p := x.ownFields(e, k)
	if found {
		p.ents[i].cid = cid
		return false
	}
	p.ents = slices.Insert(p.ents, i, fieldEnt{f, cid})
	x.nfields++
	return true
}

// delField unmaps f, if mapped.
func (x *compIndex) delField(e *epoch, f FieldID) {
	k := fieldPartOf(f)
	if i, found := x.fields[k].search(f); found {
		p := x.ownFields(e, k)
		p.ents = slices.Delete(p.ents, i, i+1)
		x.nfields--
	}
}

// eachComp visits every component, part by part.
func (x *compIndex) eachComp(fn func(*Component)) {
	for k := range x.comps {
		for _, ce := range x.comps[k].ents {
			fn(ce.c)
		}
	}
}

// eachField visits every field mapping, part by part.
func (x *compIndex) eachField(fn func(FieldID, int32)) {
	for k := range x.fields {
		for _, fe := range x.fields[k].ents {
			fn(fe.f, fe.cid)
		}
	}
}
