package engine

import (
	"fmt"
	"sort"
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
	// uncertain lists the result rows, ascending, that hold a placeholder;
	// every other result row is certain (present in every world).
	uncertain []int32
	groups    []*tlGroup
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
// with the copies the result gives it in result field order.
type tlSource struct {
	comp   *Component
	copies []tlCopy
}

// tlPending is an uncertain result row awaiting its group: j is the result
// row, src its source row, attrs its placeholder attributes (result
// indexes), and first the source holding its first copy.
type tlPending struct {
	j, src int32
	attrs  []uint16
	first  int
}

// tupleLevelView builds the tuple-level view of the relation s reads. It
// fails when a placeholder has no component and when composing components
// would exceed the MaxCompRows blow-up guard (the NP-hardness of Section 6
// surfacing as an error, exactly as on the store's own compositions).
func tupleLevelView(s *Selection) (*tupleView, error) {
	v, out := s.view, s.out
	guard := guardOf(v)
	tv := &tupleView{cols: s.cols, sel: s.sel, n: s.Len()}

	// Walk the uncertain result rows and file every copy under its source
	// component, with the masks materialize would give it. The copies of a
	// row follow its result attributes and the rows come in result order, so
	// every source lists its copies in result field order. Sources are
	// numbered in order of first sight and joined, union-find style, when a
	// row has copies in several: rows sharing a component belong to one
	// group, and transitively so through chains of shared components.
	var srcs []*tlSource
	var parent []int
	index := make(map[*Component]int)
	file := func(c *Component, cp tlCopy) int {
		i, ok := index[c]
		if !ok {
			i = len(srcs)
			index[c] = i
			srcs = append(srcs, &tlSource{comp: c})
			parent = append(parent, i)
		}
		srcs[i].copies = append(srcs[i].copies, cp)
		return i
	}
	var find func(x int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	var pending []tlPending
	ev := s.condEval()
	err := s.eachRow(nil, func(u *urow) error {
		if err := guard.Tick(); err != nil {
			return err
		}
		m := s.masks(u, v.ComponentOf, ev, rowMasks{})
		p := tlPending{j: u.j, src: u.src, first: -1}
		for di, at := range s.order {
			if !containsAttr(u.attrs, at) {
				continue
			}
			f := FieldID{Rel: s.src.id, Row: u.src, Attr: at}
			c := v.ComponentOf(f)
			if c == nil {
				return fmt.Errorf("engine: field %v has no component", f)
			}
			i := file(c, tlCopy{f: FieldID{Rel: out.id, Row: u.j, Attr: uint16(di)}, col: c.Pos(f), masks: m.of(u, at, nil)})
			if p.first < 0 {
				p.first = i
			} else {
				parent[find(i)] = find(p.first)
			}
			p.attrs = append(p.attrs, uint16(di))
		}
		if p.first < 0 && m.keep.comp != nil {
			// A carrier: the first column carries the presence of the
			// dropped fields.
			p.first = file(m.keep.comp, tlCopy{f: FieldID{Rel: out.id, Row: u.j}, col: -1, val: s.cols[0][u.src], masks: []presence{m.keep}})
			p.attrs = []uint16{0}
		}
		if p.first >= 0 {
			pending = append(pending, p)
			tv.uncertain = append(tv.uncertain, u.j)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Restrict every source to the result's copies, then compose each
	// group's restricted components into one. Groups come in result row
	// order and their components compose in the order of their first fields,
	// so the floating-point combination order downstream is deterministic.
	members := make([][]*Component, len(srcs))
	for i, src := range srcs {
		rc, err := src.restrict(guard)
		if err != nil {
			return nil, err
		}
		root := find(i)
		members[root] = append(members[root], rc)
	}
	groupOf := make([]*tlGroup, len(srcs))
	for _, p := range pending {
		if err := guard.Tick(); err != nil {
			return nil, err
		}
		root := find(p.first)
		g := groupOf[root]
		if g == nil {
			cs := members[root]
			sort.Slice(cs, func(i, j int) bool { return lessFieldID(cs[i].Fields[0], cs[j].Fields[0]) })
			merged, err := composeAll(cs)
			if err != nil {
				return nil, fmt.Errorf("engine: tuple-level normalization of %q (Section 6): %w", out.Name, err)
			}
			g = &tlGroup{comp: merged}
			groupOf[root] = g
			tv.groups = append(tv.groups, g)
		}
		cols := make([]int, len(s.cols))
		for a := range cols {
			cols[a] = -1
		}
		for _, a := range p.attrs {
			f := FieldID{Rel: out.id, Row: p.j, Attr: a}
			col := g.comp.Pos(f)
			if col < 0 {
				return nil, fmt.Errorf("engine: field %v missing from its composed component", f)
			}
			cols[a] = col
		}
		g.rows = append(g.rows, tlRow{src: p.src, cols: cols})
	}
	return tv, nil
}

// restrict builds the component the result's copies form in the source
// component once every other field is marginalized away: one column per
// copy, in result field order, and the local worlds indistinguishable on
// them merged in source order, their probabilities summed. This is what
// materializing the result and dropping the other fields would leave, so
// the groups, their composition order and the masses do not depend on
// whether the result was built. It ticks g per local world: the component
// may hold up to MaxCompRows of them (nil guard ticks for free).
func (src *tlSource) restrict(g *Guard) (*Component, error) {
	c, cps := src.comp, src.copies
	rc := &Component{ID: c.ID, Fields: make([]FieldID, len(cps)), pos: make(map[FieldID]int, len(cps))}
	for i := range cps {
		rc.Fields[i] = cps[i].f
		rc.pos[cps[i].f] = i
	}
	seen := make(map[string]int, len(c.Rows))
	key := make([]byte, 0, 4*len(cps))
	for w := range c.Rows {
		if err := g.Tick(); err != nil {
			return nil, err
		}
		row := &c.Rows[w]
		key = key[:0]
		for i := range cps {
			v, absent := cps[i].at(c, row, w)
			key = appendFieldKey(key, v, absent)
		}
		if j, ok := seen[string(key)]; ok {
			rc.Rows[j].P += row.P
			continue
		}
		vals := make([]int32, len(cps))
		var absent Bitset
		for i := range cps {
			v, abs := cps[i].at(c, row, w)
			vals[i] = v
			if abs {
				absent = absent.Set(i)
			}
		}
		seen[string(key)] = len(rc.Rows)
		rc.Rows = append(rc.Rows, CompRow{Vals: vals, Absent: absent, P: row.P})
	}
	return rc, nil
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
