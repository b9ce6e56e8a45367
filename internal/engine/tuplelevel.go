package engine

import (
	"fmt"
	"slices"
)

// This file builds the tuple-level view of one relation directly on the
// columnar representation: the native analogue of what the WSD bridge plus
// confidence.tupleLevel used to materialize as a core.WSD. All fields of a
// template row end up defined within a single component, so across-world
// operators (conf.go) can score whole tuples per local world.
//
// The view reads the relation as a Selection (ops.go): the pending result of
// σ, π or δ over its source, or the identity selection of a built relation.
// A mode query over σ/π therefore never builds its result. Each component
// reachable from the result's placeholders is restricted, straight from the
// source component, to the copies the result would give it — under the
// masks the operator decided — and the fields of every other relation are
// marginalized away. The restricted components are private to the view: the
// snapshot, arena and store are never modified, and the view's size depends
// only on the result's own placeholders. The view walks the selection's
// kept uncertain rows, and keeps its vector for the certain rows: those are
// read run by run between the uncertain ones, never listed.

// tlGroup is one independent factor of the tuple-level view: a composed,
// marginalized component together with the result rows whose uncertain
// fields it defines. Distinct groups are stochastically independent.
type tlGroup struct {
	comp *Component
	rows []tlRow
}

// tlRow maps one uncertain result row into its group's component: src is its
// row in the view's columns, and cols[a] is the component column holding
// attribute a, or -1 when the attribute is certain in the template.
type tlRow struct {
	src  int32
	cols []int
}

// tupleView is the tuple-level normalization of one relation: its certain
// rows read straight off the template, its uncertain rows grouped by the
// composed components defining them.
type tupleView struct {
	// cols are the relation's columns as its selection reads them (its
	// source's, in result order), and sel the selection's vector: result
	// row j reads row sel[j] of them (row j when sel is nil). There are n
	// result rows.
	cols [][]int32
	sel  []int32
	n    int
	// src is the relation the columns belong to and order their attribute
	// indexes in it: the value counts internCertain reads are src's.
	src   *Relation
	order []uint16
	// uncertain lists the result rows, ascending, that hold a placeholder;
	// every other result row is certain (present in every world).
	uncertain []int32
	groups    []tlGroup
}

// certainRuns walks the runs of certain result rows, in order, as the rows
// of cols they read, each at most guardPeriod rows long.
// The runs lie between the uncertain rows, so no row is tested on its own.
type certainRuns struct {
	sel, unc  []int32
	k, lo, to int     // the next uncertain row, and the result rows left
	iota      []int32 // scratch for a view reading every row
}

// runs returns the walk over the runs of certain result rows.
func (tv *tupleView) runs() certainRuns {
	return certainRuns{sel: tv.sel, unc: tv.uncertain, to: tv.n}
}

// next returns the rows of the next run; ok is false when there is none.
// The rows are valid until the next call.
func (it *certainRuns) next() (rows []int32, ok bool) {
	for it.lo < it.to {
		end := it.to
		if it.k < len(it.unc) && int(it.unc[it.k]) < it.to {
			end = int(it.unc[it.k])
		}
		lo, hi := it.lo, min(end, it.lo+guardPeriod)
		if hi < end {
			it.lo = hi
		} else {
			it.lo, it.k = end+1, it.k+1
		}
		if lo == hi {
			continue
		}
		if it.sel != nil {
			return it.sel[lo:hi], true
		}
		if it.iota == nil {
			it.iota = make([]int32, guardPeriod)
		}
		rows = it.iota[:hi-lo]
		for i := range rows {
			rows[i] = int32(lo + i)
		}
		return rows, true
	}
	return nil, false
}

// tlCopy is one placeholder field of the result as its source component
// would hold it: the copy of column col — or, for a carrier (col -1), of the
// certain value val — absent where the source field is and where one of
// its masks fails.
type tlCopy struct {
	f     FieldID // the result field
	col   int
	val   int32
	masks []presence
}

// at returns the copy's value and absence at local world w, row, of its
// source component c.
func (cp *tlCopy) at(c *Component, row *CompRow, w int) (int32, bool) {
	v, absent := cp.val, false
	if cp.col >= 0 {
		v, absent = row.Vals[cp.col], row.IsAbsent(cp.col)
	}
	return v, absent || anyFails(cp.masks, c, w)
}

// tlSource is a source component reachable from the result's placeholders,
// with the copies the result gives it in result field order, and off, the
// column of its first copy in its group's composed component.
type tlSource struct {
	comp   *Component
	copies []tlCopy
	n, off int // n counts the copies filed before they are laid out
}

// tlFiled places a filed copy: its source, and its index among the source's
// copies.
type tlFiled struct{ src, k int32 }

// tlPending is an uncertain result row awaiting its group: j is the result
// row, src its source row, its copies are the view's filed copies
// [from, to), first is the source holding the first, and g its group.
type tlPending struct {
	j, src, from, to, first, g int32
}

// viewBufs back the slices a tuple-level view cuts per row, per copy and
// per source. A pooled arena keeps them across queries (the view of one
// query is dead before the next is built); any other view's start empty.
// They are scratch, not result: MemUsage does not charge them, so reading
// a pending result leaves its arena's footprint as it was.
type viewBufs struct {
	pending   []tlPending
	uncertain []int32
	filed     []tlCopy // the copies in filing order
	at        []tlFiled
	copies    []tlCopy // the copies grouped by source
	srcs      []tlSource
	parent    []int32
	masks     []presence
	conds     []presence
	pass      []bool
	groups    []tlGroup
	groupOf   []int32 // a root source's group + 1, 0 before it has one
	groupN    []int   // the rows of each group
	rows      []tlRow
	cols      []int
	members   []int32 // the sources grouped by root, in composition order
	run       []int32 // a root's first member in members
	comps     []Component
	compPtrs  []*Component
	compRows  []CompRow
	vals      []int32
	absent    []uint64
	keys      []int32
}

// viewBufsOf returns the backings a view over v cuts from, emptied.
func viewBufsOf(v View) *viewBufs {
	a, ok := v.(*Arena)
	if !ok {
		return new(viewBufs)
	}
	b := &a.view
	*b = viewBufs{
		pending: b.pending[:0], uncertain: b.uncertain[:0], filed: b.filed[:0], at: b.at[:0],
		copies: b.copies[:0], srcs: b.srcs[:0], parent: b.parent[:0], masks: b.masks[:0],
		conds: b.conds[:0], pass: b.pass[:0], groups: b.groups[:0], groupOf: b.groupOf[:0], groupN: b.groupN[:0],
		rows: b.rows[:0], cols: b.cols[:0], members: b.members[:0], run: b.run[:0],
		comps: b.comps[:0], compPtrs: b.compPtrs[:0], compRows: b.compRows[:0],
		vals: b.vals[:0], absent: b.absent[:0], keys: b.keys[:0],
	}
	return b
}

// release drops the references the last view left to its snapshot's
// components, so a pooled arena pins none of them; capacity stays.
func (b *viewBufs) release() {
	clear(b.srcs)
	clear(b.masks)
	clear(b.conds)
}

// grown returns s with length n, reusing its array when it can; the
// elements are not cleared.
func grown[E any](s []E, n int) []E {
	return slices.Grow(s[:0], n)[:n]
}

// cutPass copies the masks of one row into the backings, so that the next
// row's masks can reuse the scratch they were computed in.
func (b *viewBufs) cutPass(m rowMasks) rowMasks {
	keep := func(p presence) presence {
		if p.comp == nil {
			return p
		}
		n := len(b.pass)
		b.pass = append(b.pass, p.pass...)
		return presence{comp: p.comp, pass: b.pass[n:len(b.pass):len(b.pass)]}
	}
	out := rowMasks{keep: keep(m.keep)}
	if len(m.conds) > 0 {
		n := len(b.conds)
		for _, c := range m.conds {
			b.conds = append(b.conds, keep(c))
		}
		out.conds = b.conds[n:len(b.conds):len(b.conds)]
	}
	return out
}

// tupleLevelView builds the tuple-level view of the relation s reads. It
// fails when a placeholder has no component and when composing components
// would exceed the MaxCompRows blow-up guard (the NP-hardness of Section 6
// surfacing as an error, exactly as on the store's own compositions).
func tupleLevelView(s *Selection) (*tupleView, error) {
	v, out := s.view, s.out
	guard := guardOf(v)
	b := viewBufsOf(v)
	tv := &tupleView{cols: s.cols, sel: s.sel, n: s.Len()}
	// A live store still writes columns of its current epoch in place
	// (Store.markUncertain), which would leave their value counts stale: only
	// a snapshot's relations, read directly or through an arena, have any.
	if _, live := v.(*Store); !live {
		tv.src, tv.order = s.src, s.order
	}

	// Walk the uncertain result rows and file every copy under its source
	// component, with the masks materialize would give it. The copies of a
	// row follow its result attributes and the rows come in result order, so
	// every source lists its copies in result field order. Sources are
	// numbered in order of first sight and joined, union-find style, when a
	// row has copies in several: rows sharing a component belong to one
	// group, and transitively so through chains of shared components.
	index := make(map[*Component]int32)
	file := func(c *Component, cp tlCopy) int32 {
		i, ok := index[c]
		if !ok {
			i = int32(len(b.srcs))
			index[c] = i
			b.srcs = append(b.srcs, tlSource{comp: c})
			b.parent = append(b.parent, i)
		}
		b.at = append(b.at, tlFiled{src: i, k: int32(b.srcs[i].n)})
		b.srcs[i].n++
		b.filed = append(b.filed, cp)
		return i
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		if b.parent[x] != x {
			b.parent[x] = find(b.parent[x])
		}
		return b.parent[x]
	}
	ev := s.condEval()
	var scratch rowMasks
	err := s.eachRow(nil, func(u *urow) error {
		if err := guard.Tick(); err != nil {
			return err
		}
		scratch = s.masks(u, v.ComponentOf, ev, scratch)
		m := b.cutPass(scratch)
		p := tlPending{j: u.j, src: u.src, from: int32(len(b.filed)), first: -1}
		for di, at := range s.order {
			if !containsAttr(u.attrs, at) {
				continue
			}
			f := FieldID{Rel: s.src.id, Row: u.src, Attr: at}
			c := v.ComponentOf(f)
			if c == nil {
				return fmt.Errorf("engine: field %v has no component", f)
			}
			n := len(b.masks)
			b.masks = m.of(u, at, b.masks)
			i := file(c, tlCopy{f: FieldID{Rel: out.id, Row: u.j, Attr: uint16(di)}, col: c.Pos(f), masks: b.masks[n:len(b.masks):len(b.masks)]})
			if p.first < 0 {
				p.first = i
			} else {
				b.parent[find(i)] = find(p.first)
			}
		}
		if p.first < 0 && m.keep.comp != nil {
			// A carrier: the first column carries the presence of the
			// dropped fields.
			n := len(b.masks)
			b.masks = append(b.masks, m.keep)
			p.first = file(m.keep.comp, tlCopy{f: FieldID{Rel: out.id, Row: u.j}, col: -1, val: s.cols[0][u.src], masks: b.masks[n:len(b.masks):len(b.masks)]})
		}
		if p.first >= 0 {
			p.to = int32(len(b.filed))
			b.pending = append(b.pending, p)
			b.uncertain = append(b.uncertain, u.j)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tv.uncertain = b.uncertain
	if len(b.srcs) == 0 {
		return tv, nil
	}
	b.layOut()

	// Restrict every source to the result's copies, then compose each
	// group's restricted components into one. Groups come in result row
	// order and their components compose in the order of their first fields,
	// so the floating-point combination order downstream is deterministic.
	b.reserve()
	for i := range b.srcs {
		if err := b.restrict(i, guard); err != nil {
			return nil, err
		}
	}
	b.groupSources(find)
	b.groupOf = grown(b.groupOf, len(b.srcs))
	clear(b.groupOf)
	for t := range b.pending {
		if err := guard.Tick(); err != nil {
			return nil, err
		}
		p := &b.pending[t]
		root := find(p.first)
		if b.groupOf[root] > 0 {
			p.g = b.groupOf[root] - 1
			b.groupN[p.g]++
			continue
		}
		lo, hi := b.run[root], b.run[root]
		for hi < int32(len(b.members)) && find(b.members[hi]) == root {
			hi++
		}
		n := len(b.compPtrs)
		for _, i := range b.members[lo:hi] {
			b.compPtrs = append(b.compPtrs, &b.comps[i])
		}
		merged, err := composeAll(b.compPtrs[n:])
		if err != nil {
			return nil, fmt.Errorf("engine: tuple-level normalization of %q (Section 6): %w", out.Name, err)
		}
		b.groups = append(b.groups, tlGroup{comp: merged})
		b.groupN = append(b.groupN, 1)
		b.groupOf[root] = int32(len(b.groups))
		p.g = int32(len(b.groups) - 1)
	}
	b.rows = grown(b.rows, len(b.pending))
	next := 0
	for g := range b.groups {
		if err := guard.Tick(); err != nil {
			return nil, err
		}
		n := b.groupN[g]
		b.groups[g].rows = b.rows[next : next : next+n]
		next += n
	}
	arity := len(s.cols)
	b.cols = grown(b.cols, len(b.pending)*arity)
	for t, p := range b.pending {
		cols := b.cols[t*arity : (t+1)*arity : (t+1)*arity]
		for a := range cols {
			cols[a] = -1
		}
		for c := p.from; c < p.to; c++ {
			at := b.at[c]
			cols[b.filed[c].f.Attr] = b.srcs[at.src].off + int(at.k)
		}
		g := &b.groups[p.g]
		g.rows = append(g.rows, tlRow{src: p.src, cols: cols})
	}
	tv.groups = b.groups
	return tv, nil
}

// layOut lays the filed copies out source by source, each source's in
// filing order, and points every source at its own.
func (b *viewBufs) layOut() {
	b.copies = grown(b.copies, len(b.filed))
	next := 0
	for i := range b.srcs {
		n := b.srcs[i].n
		b.srcs[i].copies = b.copies[next : next+n : next+n]
		next += n
	}
	for c, at := range b.at {
		b.srcs[at.src].copies[at.k] = b.filed[c]
	}
}

// groupSources lists the sources root by root, each root's in the order of
// their first fields — the order their restrictions compose in — and sets
// every source's column offset in its group's composition.
func (b *viewBufs) groupSources(find func(int32) int32) {
	b.members = grown(b.members, len(b.srcs))
	for i := range b.members {
		b.members[i] = int32(i)
	}
	slices.SortFunc(b.members, func(x, y int32) int {
		if rx, ry := find(x), find(y); rx != ry {
			return int(rx - ry)
		}
		if lessFieldID(b.srcs[x].copies[0].f, b.srcs[y].copies[0].f) {
			return -1
		}
		return 1
	})
	b.run = grown(b.run, len(b.srcs))
	off, root := 0, int32(-1)
	for t, i := range b.members {
		if r := find(i); r != root {
			root, off = r, 0
			b.run[r] = int32(t)
		}
		b.srcs[i].off = off
		off += len(b.srcs[i].copies)
	}
}

// reserve sizes the backings of the restricted components for every local
// world of every source, so that restrict never moves them.
func (b *viewBufs) reserve() {
	worlds, words, absent := 0, 0, 0
	for i := range b.srcs {
		n, k := len(b.srcs[i].comp.Rows), len(b.srcs[i].copies)
		worlds, words, absent = worlds+n, words+n*k, absent+n*((k+63)/64)
	}
	b.comps = grown(b.comps, len(b.srcs))
	b.compRows = slices.Grow(b.compRows[:0], worlds)
	b.vals = slices.Grow(b.vals[:0], words)
	b.absent = slices.Grow(b.absent[:0], absent)
}

// linearWorlds is the most local worlds a restriction merges by a linear
// scan of the distinct ones so far; a longer component merges through a
// tupleTable.
const linearWorlds = 16

// absentKey stands for an absent field in the words local worlds merge on:
// distinct from every value (≥ 0) and from Placeholder.
const absentKey = -2

// restrict builds, as b.comps[i], the component source i's copies form in
// its component once every other field is marginalized away: one column per
// copy, in result field order, and the local worlds indistinguishable on
// them merged in source order, their probabilities summed. This is what
// materializing the result and dropping the other fields would leave, so
// the groups, their composition order and the masses do not depend on
// whether the result was built. Local worlds merge on their int32 words (a
// value, or absentKey), by a linear scan of the distinct ones so far or, in
// a component of more than linearWorlds, through a tupleTable. Values and
// absence words are cut from b's backings. It ticks g per local world: the
// component may hold up to MaxCompRows of them (nil guard ticks for free).
func (b *viewBufs) restrict(i int, g *Guard) error {
	src := &b.srcs[i]
	c, cps := src.comp, src.copies
	k, nw := len(cps), (len(cps)+63)/64
	rc := &b.comps[i]
	*rc = Component{ID: c.ID, Fields: make([]FieldID, k)}
	for i := range cps {
		rc.Fields[i] = cps[i].f
	}
	var tab *tupleTable
	if len(c.Rows) > linearWorlds {
		tab = newTupleTable(k)
	}
	keys := grown(b.keys, (min(len(c.Rows), linearWorlds)+1)*k)
	b.keys = keys
	start := len(b.compRows)
	for w := range c.Rows {
		if err := g.Tick(); err != nil {
			return err
		}
		row := &c.Rows[w]
		n := len(b.compRows) - start
		key := keys[:k]
		if tab == nil {
			key = keys[n*k : (n+1)*k]
		}
		vals := b.vals[len(b.vals) : len(b.vals)+k : len(b.vals)+k]
		absent := b.absent[len(b.absent) : len(b.absent)+nw : len(b.absent)+nw]
		clear(absent)
		any := false
		for i := range cps {
			v, abs := cps[i].at(c, row, w)
			vals[i], key[i] = v, v
			if abs {
				key[i], any = absentKey, true
				absent[i>>6] |= 1 << (i & 63)
			}
		}
		j := -1
		if tab != nil {
			if d, added := tab.intern(key); !added {
				j = d
			}
		} else {
			for d := range n {
				if slices.Equal(keys[d*k:(d+1)*k], key) {
					j = d
					break
				}
			}
		}
		if j >= 0 {
			b.compRows[start+j].P += row.P
			continue
		}
		b.vals = b.vals[:len(b.vals)+k]
		if !any {
			absent = nil
		} else {
			b.absent = b.absent[:len(b.absent)+nw]
		}
		b.compRows = append(b.compRows, CompRow{Vals: vals, Absent: absent, P: row.P})
	}
	rc.Rows = b.compRows[start:len(b.compRows):len(b.compRows)]
	return nil
}

// lessFieldID orders fields (relation, row, attribute)-lexicographically; it
// keys the composition order of a group's components, keeping the
// tuple-level view independent of map iteration.
func lessFieldID(a, b FieldID) bool {
	if a.Rel != b.Rel {
		return a.Rel < b.Rel
	}
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Attr < b.Attr
}
