package engine

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// This file implements selection, projection and renaming on the columnar
// UWSDT store — thin calls into one fused operator, selectProject. The
// rewritten operators follow Section 5: results are new template relations
// whose placeholders share the component space with their inputs, and tuple
// absence is tracked by per-(field, local world) presence — the uniform
// encoding of worlds of different sizes.
//
// The read path is the paper's ordinary relational processing on the
// template plus a small correction for the placeholders: the condition runs
// column-at-a-time over the template into a selection vector, the rows whose
// referenced fields are placeholders — found by walking the relation's
// row-sorted uncertainty index — are decided per local world, and only the
// kept columns are gathered at the surviving rows (arena.go builds results).
// On a base relation the vector starts from lazily built value postings
// (posting.go): the candidate rows of the condition's most selective
// conjunct (an atom A θ c, or a disjunction of such over one attribute),
// with the remaining conjuncts run as kernels over them. The postings are
// built on first use under the query's guard, never persisted, shared by
// the snapshots that share a column, and cost 4 B per row plus 4 B per
// value of the column's span, outside any query's memory budget. The scan
// over every row is kept for arena results, columns without a posting and
// conditions whose best conjunct keeps more than half of the rows. Both
// give the same vector.
//
// A chain of selections, each read only by the next, is one staged
// operator (a Stages condition): the first stage starts as above, each
// later one runs its kernels over the previous stage's vector, and a row
// whose stage-k references are placeholders is decided per local world,
// reading them as the chain's intermediate would hold them. The
// intermediates are never built; the components, their local-world order
// and every mask are those of the chain run step by step.
//
// The uncertain rows cost what the query keeps. Each stage records, while
// it filters, the rows of the source's uncertainty index its vector keeps
// (the Selection's kept rows); the next stage, π, Stats, the tuple-level
// view and the build walk those, and only the first stage walks the whole
// index. A row whose stage is a conjunction is rejected on the template,
// with no per-world decision, when a conjunct reading none of its
// placeholders fails there: its cells are certain, so it fails in every
// world. π composes a row's fields only when they span several
// components; a single one is read in place.
//
// Operators are Arena methods: they read base data through the arena's
// snapshot and write result templates and extended component rows into the
// arena, leaving the shared store untouched — which is what lets many
// sessions run SELECTs concurrently.

// Select computes res := σ_p(src). Rows whose referenced fields are certain
// are filtered directly on the template; rows with uncertain referenced
// fields keep one presence bit per local world of the (possibly composed)
// component holding those fields.
func (a *Arena) Select(res, src string, p Pred) error {
	return a.selectProject(res, src, p, nil)
}

// Project computes res := π_attrs(src), keeping one result row per source
// row (tuple slots; duplicates coincide at decode time). When a dropped
// uncertain field records tuple absence, that absence is propagated into
// the kept fields — composing components when necessary — so deleted tuples
// are not resurrected (the ⊥-propagation of Figure 9 in uniform encoding).
func (a *Arena) Project(res, src string, attrs ...string) error {
	return a.SelectProject(res, src, nil, attrs...)
}

// SelectProject computes res := π_attrs(σ_p(src)) in one pass (a nil p
// selects every row). The result is Select into a temporary, Project of it
// and dropping the temporary — same template, components and local worlds,
// up to the order of fields within a component — but only the kept columns
// are gathered and only the components of kept and presence-carrying fields
// are adopted.
func (a *Arena) SelectProject(res, src string, p Pred, attrs ...string) error {
	if len(attrs) == 0 {
		return fmt.Errorf("engine: empty projection")
	}
	return a.selectProject(res, src, p, attrs)
}

// urow is a result row whose source row holds placeholders, with the plan
// for the copies of its fields.
type urow struct {
	j, src int32
	attrs  []uint16 // the source row's placeholder attributes
	// dec are the row's decisions, one per stage whose condition reads its
	// placeholders, in stage order.
	dec []decision
	// drop are the dropped attributes whose copies would carry absence; the
	// kept copies in their component carry their presence or, when none is
	// kept, a carrier field does.
	drop []uint16
}

// decision is a row's verdict at one stage of the condition. ref are the
// placeholder attributes the stage reads: the row is decided per local
// world of their component. inSel are the placeholder attributes sharing
// that component at the decision — their copies carry the stage's mask —
// and failing says the stage fails in some local world. A rejected row
// keeps inSel nil.
type decision struct {
	stage      int
	ref, inSel []uint16
	failing    bool
}

// Selection is a result of σ, π and δ read in place: the kept columns of
// its source relation at a selection vector. Its template cells are the
// source's — placeholders included — except the carriers, result rows whose
// first column becomes a placeholder to carry the presence of dropped
// fields. Its fields join their components only when something asks for the
// result as a relation (Arena.Rel, RelByID, Commit, or the next operator);
// the result reader and the tuple-level view of a mode query read it as it
// stands. A Selection over a relation that needs no building is the
// identity one.
type Selection struct {
	// view resolves components: the arena of an operator's result, or the
	// view an identity selection reads.
	view View
	// out is the result relation, src the relation read (the same relation
	// for the identity selection).
	out, src *Relation
	sel      []int32 // surviving source rows, ascending; nil = every row
	// kept are the rows of src's uncertainty index that sel keeps, in
	// order; with a nil sel the index is read as it stands. They are cut
	// from the arena's backing.
	kept   []keptRow
	order  []uint16
	cols   [][]int32 // src's columns in result order
	stages []CompiledPred
	// plans are the surviving rows with a condition or absence plan, in
	// source order; the others copy their placeholders as they stand. Their
	// attribute lists and decisions are cut from the arena's backings.
	plans    []urow
	carriers []int32 // ascending result rows
}

// keptRow is an uncertain row a selection keeps: i is its position in the
// source's uncertainty index, j its result row.
type keptRow struct{ i, j int32 }

// selectProject computes π_attrs(σ_p(src)) as res; nil p selects every row,
// nil attrs keeps every attribute, and a Stages p runs its stages in turn.
// Compositions happen in the order of the operators run one by one — each
// stage's per row, then π's per surviving row — before any mask is
// evaluated, so local-world indexes stay stable and the components equal
// the step-by-step ones. The result is left pending as a Selection.
func (a *Arena) selectProject(res, src string, p Pred, attrs []string) error {
	if err := a.materialize(); err != nil {
		return err
	}
	r := a.Rel(src)
	if r == nil {
		return fmt.Errorf("engine: unknown relation %q", src)
	}
	if a.has(res) {
		return fmt.Errorf("engine: relation %q already exists", res)
	}
	order := allAttrs(r)
	if attrs != nil {
		order = make([]uint16, len(attrs))
		for i, at := range attrs {
			ai, err := r.AttrIndex(at)
			if err != nil {
				return err
			}
			if containsAttr(order[:i], ai) {
				return fmt.Errorf("engine: duplicate projection attribute %q", at)
			}
			order[i] = ai
		}
	}
	v := &Selection{view: a, src: r, order: order}
	if p != nil {
		stages, ok := p.(Stages)
		if !ok {
			stages = Stages{p}
		}
		v.stages = make([]CompiledPred, len(stages))
		for k, sp := range stages {
			var err error
			if v.stages[k], err = sp.Compile(r); err != nil {
				return err
			}
		}
		for k := range v.stages {
			if err := a.stage(v, k); err != nil {
				return err
			}
		}
	}

	// π's ⊥-propagation: a dropped field carrying absence — its own, or a
	// stage's — joins the component of the row's kept fields. Only a
	// relation recording absence has fields worth probing for their own.
	if len(order) < len(r.Attrs) {
		var plans []urow
		err := v.eachRow(nil, func(u *urow) error {
			if err := a.tick(); err != nil {
				return err
			}
			start := len(a.attrBuf)
			for _, at := range u.attrs {
				if !containsAttr(order, at) && (u.failsIn(at) || r.absence && a.fieldHasAbsence(FieldID{Rel: r.id, Row: u.src, Attr: at})) {
					a.attrBuf = append(a.attrBuf, at)
				}
			}
			u.drop = a.cut(start)
			if u.dec != nil || u.drop != nil {
				plans = append(plans, *u)
			}
			if u.drop == nil {
				return nil
			}
			if !intersects(u.attrs, order) {
				v.carriers = append(v.carriers, u.j)
			}
			// Compose only fields spanning several components: one is read
			// in place, and adopted only when the result is built.
			multi, err := a.spansComps(r, u, order)
			if err != nil || !multi {
				return err
			}
			fields := r.fields(u.src, u.drop)
			for _, at := range u.attrs {
				if containsAttr(order, at) {
					fields = append(fields, FieldID{Rel: r.id, Row: u.src, Attr: at})
				}
			}
			_, err = a.mergeComps(fields...)
			return err
		})
		if err != nil {
			return err
		}
		v.plans = plans
	}

	names := make([]string, len(order))
	v.cols = make([][]int32, len(order))
	for i, at := range order {
		names[i], v.cols[i] = r.Attrs[at], r.Cols[at]
	}
	var err error
	if v.out, err = a.addRelation(res, names, make([][]int32, len(order))); err != nil {
		return err
	}
	a.pending = v
	return nil
}

// spansComps reports whether the fields π joins for row u of r — its
// dropped fields carrying absence and its kept placeholders — lie in more
// than one component.
func (a *Arena) spansComps(r *Relation, u *urow, order []uint16) (bool, error) {
	var first *Component
	for _, at := range u.attrs {
		if !containsAttr(u.drop, at) && !containsAttr(order, at) {
			continue
		}
		f := FieldID{Rel: r.id, Row: u.src, Attr: at}
		c := a.ComponentOf(f)
		if c == nil {
			return false, fmt.Errorf("engine: field %v has no component", f)
		}
		if first == nil {
			first = c
		} else if c != first {
			return true, nil
		}
	}
	return false, nil
}

// stage runs stage k of v's condition over the rows the stages before it
// kept (every row, for the first). σ(AθB) and multi-attribute conditions
// entangle the components of the placeholders they read: those are
// composed row by row, and then every row whose stage-k references are
// placeholders is decided per local world — its references read as the
// chain's intermediate would hold them, under the earlier decisions — for
// filter to overrule the kernels with. A row that a conjunct reading none of
// its placeholders rejects on the template fails in every local world and
// is not decided per world.
func (a *Arena) stage(v *Selection, k int) error {
	r, attrs := v.src, v.stages[k].Attrs()
	refs := a.refs[:0] // the rows whose stage-k condition reads placeholders
	defer func() { clear(refs); a.refs = refs[:0] }()
	err := v.eachRow(attrs, func(u *urow) error {
		start := len(a.attrBuf)
		for _, at := range u.attrs {
			if containsAttr(attrs, at) {
				a.attrBuf = append(a.attrBuf, at)
			}
		}
		ref := a.cut(start)
		if ref == nil { // a condition reading no attribute: want was nil
			return nil
		}
		if err := a.tick(); err != nil {
			return err
		}
		if len(ref) > 1 {
			if _, err := a.mergeComps(r.fields(u.src, ref)...); err != nil {
				return err
			}
		}
		n := len(a.decBuf)
		a.decBuf = append(append(a.decBuf, u.dec...), decision{stage: k, ref: ref})
		u.dec = a.decBuf[n:len(a.decBuf):len(a.decBuf)]
		refs = append(refs, *u)
		return nil
	})
	if err != nil {
		return err
	}
	ev := v.condEval()
	var conj []CompiledPred
	if cl, ok := v.stages[k].(compiledList); ok && cl.conj {
		conj = cl.kids
	}
	var m rowMasks
	for i := range refs {
		u := &refs[i]
		if err := a.tick(); err != nil {
			return err
		}
		if ev.rejects(conj, u) {
			continue
		}
		if a.onDecide != nil {
			a.onDecide(k, u.src)
		}
		// Read, do not adopt: a rejected row never extends its component,
		// and a surviving one adopts it when it does.
		m = v.masks(u, a.ComponentOf, ev, m)
		cond := m.conds[len(m.conds)-1]
		if !slices.Contains(cond.pass, true) {
			continue
		}
		d := &u.dec[len(u.dec)-1]
		d.failing = slices.Contains(cond.pass, false)
		start := len(a.attrBuf)
		for _, at := range u.attrs {
			if a.ComponentOf(FieldID{Rel: r.id, Row: u.src, Attr: at}) == cond.comp {
				a.attrBuf = append(a.attrBuf, at)
			}
		}
		d.inSel = a.cut(start)
	}
	sel, kept, err := a.filter(v, k, refs)
	if err != nil {
		return err
	}
	v.plans = keptPlans(v.plans, refs, kept, &r.unc)
	v.sel, v.kept = sel, kept
	return nil
}

// cut returns the attributes appended to a.attrBuf since start, capped so
// that an append to them copies; nil when there are none.
func (a *Arena) cut(start int) []uint16 {
	if len(a.attrBuf) == start {
		return nil
	}
	return a.attrBuf[start:len(a.attrBuf):len(a.attrBuf)]
}

// keptPlans returns the plans of the uncertain rows kept keeps, rows of
// x, in source order: those of old, and for the rows refs decided those of
// refs, which hold old's decisions too.
func keptPlans(old, refs []urow, kept []keptRow, x *uncIndex) []urow {
	out := make([]urow, 0, min(len(old)+len(refs), len(kept)))
	s := 0
	for len(old) > 0 || len(refs) > 0 {
		var u urow
		if len(refs) == 0 || len(old) > 0 && old[0].src < refs[0].src {
			u, old = old[0], old[1:]
		} else {
			if len(old) > 0 && old[0].src == refs[0].src {
				old = old[1:]
			}
			u, refs = refs[0], refs[1:]
		}
		for s < len(kept) && x.rows[kept[s].i] < u.src {
			s++
		}
		if s < len(kept) && x.rows[kept[s].i] == u.src {
			out = append(out, u)
		}
	}
	return out
}

// failsIn reports whether a decision whose inSel holds attribute at fails
// in some local world: the copy of at carries absence.
func (u *urow) failsIn(at uint16) bool {
	for i := range u.dec {
		if u.dec[i].failing && containsAttr(u.dec[i].inSel, at) {
			return true
		}
	}
	return false
}

// eachRow calls fn, in order, on every result row whose source row holds
// placeholders — of one of the attributes want, unless want is nil — with
// its plan: the kept rows, or the source's uncertainty index when every row
// is kept, with the plans merged in.
func (v *Selection) eachRow(want []uint16, fn func(u *urow) error) error {
	x := &v.src.unc
	n := len(x.rows)
	if v.sel != nil {
		n = len(v.kept)
	}
	var u urow // one for the walk: fn may keep only a copy
	for t, k := 0, 0; t < n; t++ {
		i := t
		if v.sel != nil {
			i = int(v.kept[t].i)
		}
		attrs := x.at(i)
		if want != nil && !intersects(attrs, want) {
			continue
		}
		u.src, u.j, u.attrs, u.dec, u.drop = x.rows[i], x.rows[i], attrs, nil, nil
		if v.sel != nil {
			u.j = v.kept[t].j
		}
		for k < len(v.plans) && v.plans[k].src < u.src {
			k++
		}
		if k < len(v.plans) && v.plans[k].src == u.src {
			u.dec, u.drop = v.plans[k].dec, v.plans[k].drop
		}
		if err := fn(&u); err != nil {
			return err
		}
	}
	return nil
}

// rowMasks are the presence masks the copies of one row's fields carry:
// conds, one per decision of the row, over the component of the fields it
// read, and keep — the presence of the dropped fields — over theirs.
type rowMasks struct {
	conds []presence
	keep  presence
}

// masks returns the masks of row u. comp resolves components: compFor when
// the copies are about to join them, ComponentOf when they are only counted
// or viewed. Every mask reads its fields as the chain's intermediate would
// hold them: absent where an earlier decision whose inSel holds them fails.
// Such a decision's mask is over the same component, since a field in inSel
// shares it — and so is every decision's mask that keep reads, since a
// dropped inSel field merged its component into keep's. ev is the loop's
// evaluator of v's condition. The masks reuse the slices of scratch, masks
// of an earlier row; a caller that keeps them passes none.
//
//maybms:unguarded bounded single-component probe; the loops that call it tick per row
func (v *Selection) masks(u *urow, comp func(FieldID) *Component, ev *condEval, scratch rowMasks) rowMasks {
	r := v.src
	m := rowMasks{conds: scratch.conds[:0]}
	for i := range u.dec {
		c := comp(FieldID{Rel: r.id, Row: u.src, Attr: u.dec[i].ref[0]})
		var pass []bool
		if i < len(scratch.conds) {
			pass = scratch.conds[i].pass
		}
		m.conds = append(m.conds, presence{comp: c, pass: ev.mask(u, i, c, m.conds, pass)})
	}
	if u.drop == nil {
		return m
	}
	c := comp(FieldID{Rel: r.id, Row: u.src, Attr: u.drop[0]})
	m.keep = presence{comp: c, pass: slices.Grow(scratch.keep.pass[:0], len(c.Rows))[:len(c.Rows)]}
	var buf [4]presence
	hide := buf[:0] // the masks of the decisions holding a dropped field
	for i := range m.conds {
		if intersects(u.dec[i].inSel, u.drop) {
			hide = append(hide, m.conds[i])
		}
	}
	var posBuf [8]int
	pos := posBuf[:0]
	for _, at := range u.drop {
		pos = append(pos, c.Pos(FieldID{Rel: r.id, Row: u.src, Attr: at}))
	}
	for w := range c.Rows {
		m.keep.pass[w] = !slices.ContainsFunc(pos, c.Rows[w].IsAbsent) && !anyFails(hide, c, w)
	}
	return m
}

// of appends to ms the masks the copy of u's field at carries: those of the
// decisions whose inSel holds at, and keep.
func (m *rowMasks) of(u *urow, at uint16, ms []presence) []presence {
	for i := range m.conds {
		if containsAttr(u.dec[i].inSel, at) {
			ms = append(ms, m.conds[i])
		}
	}
	if m.keep.comp != nil {
		ms = append(ms, m.keep)
	}
	return ms
}

// Selection returns the named relation as a Selection without building it:
// the pending result of σ, π or δ, or the identity selection over any other
// relation. nil if there is no such relation.
func (a *Arena) Selection(name string) *Selection {
	if v := a.pending; v != nil && v.out.Name == name {
		return v
	}
	r := a.Rel(name)
	if r == nil {
		return nil
	}
	return identity(a, r)
}

// identity returns the Selection reading every row and attribute of the
// built relation r of v.
func identity(v View, r *Relation) *Selection {
	return &Selection{view: v, out: r, src: r, order: allAttrs(r), cols: r.Cols}
}

// Name returns the result relation's name.
func (v *Selection) Name() string { return v.out.Name }

// Len returns the number of result rows.
func (v *Selection) Len() int {
	if v.sel == nil {
		return v.src.NumRows()
	}
	return len(v.sel)
}

// Cols returns the source columns in result order, shared and read-only:
// result row i reads row Sel()[i] of them (row i when Sel is nil).
func (v *Selection) Cols() [][]int32 { return v.cols }

// Sel returns the selection vector: the source row of every result row,
// ascending; nil when the result keeps every source row.
func (v *Selection) Sel() []int32 { return v.sel }

// Carriers returns the result rows, ascending, whose first column reads
// Placeholder whatever the source holds there.
func (v *Selection) Carriers() []int32 { return v.carriers }

// At returns the template cell of result row i, column c.
func (v *Selection) At(i, c int) int32 {
	if c == 0 && len(v.carriers) > 0 {
		if _, ok := slices.BinarySearch(v.carriers, int32(i)); ok {
			return Placeholder
		}
	}
	if v.sel != nil {
		i = int(v.sel[i])
	}
	return v.cols[c][i]
}

// Stats returns the representation statistics of the result, equal to
// those of the relation it builds: each copy counts under its source
// field's component, present where the source field is and the masks
// extendRow gives it hold, and a carrier under the component of the
// presence it carries.
//
//maybms:unguarded planner/EXPLAIN statistics probe, not a query answer path: one bounded pass per uncertain field
func (v *Selection) Stats() Stats {
	st := Stats{RSize: v.Len()}
	r := v.src
	kept := make([]bool, len(r.Attrs))
	for _, at := range v.order {
		kept[at] = true
	}
	fieldsPerComp := make(map[*Component]int)
	// count adds field f's copy under its component and returns the local
	// worlds where it is present and none of its masks ms fails.
	count := func(f FieldID, ms []presence) (cells int) {
		c := v.view.ComponentOf(f)
		if c == nil {
			return 0
		}
		fieldsPerComp[c]++
		col := c.Pos(f)
		for w, crow := range c.Rows {
			if !crow.IsAbsent(col) && !anyFails(ms, c, w) {
				cells++
			}
		}
		return cells
	}
	if v.sel == nil && v.plans == nil {
		// Every source row is kept and none carries a plan (an identity
		// selection, or π over a relation recording no absence): no masks.
		x := &r.unc
		for i, row := range x.rows {
			for _, at := range x.at(i) {
				if kept[at] {
					st.CSize += count(FieldID{Rel: r.id, Row: row, Attr: at}, nil)
				}
			}
		}
	} else {
		ev := v.condEval()
		var m rowMasks
		var ms []presence
		_ = v.eachRow(nil, func(u *urow) error {
			m = v.masks(u, v.view.ComponentOf, ev, m)
			carried := false
			for _, at := range u.attrs {
				if !kept[at] {
					continue
				}
				carried = true
				ms = m.of(u, at, ms[:0])
				st.CSize += count(FieldID{Rel: r.id, Row: u.src, Attr: at}, ms)
			}
			if !carried && m.keep.comp != nil {
				fieldsPerComp[m.keep.comp]++
				for _, pass := range m.keep.pass {
					if pass {
						st.CSize++
					}
				}
			}
			return nil
		})
	}
	st.NumComp = len(fieldsPerComp)
	for _, n := range fieldsPerComp {
		if n > 1 {
			st.NumCompGT1++
		}
	}
	return st
}

// filter runs stage k of v's condition over the template of its source
// and returns the selection vector of the rows kept and the uncertain rows
// among them. The first stage reads drive's candidates (the postings of its
// most selective atom, with the remaining conjuncts as kernels) or, failing
// that, every row; a later stage reads the rows the stage before it kept.
// Either way the rows come a batch of guardPeriod rows at a time, the
// kernels' verdicts on the rows of refs are overruled by their
// per-local-world decisions, and the batch's uncertain rows — the source's
// indexed rows, or the previous stage's kept ones — are found among its
// survivors (keptRows).
func (a *Arena) filter(v *Selection, k int, refs []urow) ([]int32, []keptRow, error) {
	r := v.src
	n := r.NumRows()
	start := len(a.keptBuf)
	km := a.keptRows(v, k)
	cand, kernel, driven := v.sel, v.stages[k], k > 0
	if k == 0 {
		if c, rest, ok := drive(r, kernel, a.guard); ok {
			cand, kernel, driven = c, rest, true
		}
	}
	m, size := n, min(n, guardPeriod)
	if driven {
		m, size = len(cand), len(cand)+len(refs) // as large as it gets
	}
	sel := make([]int32, 0, size)
	d := 0
	for lo := 0; lo < m; lo += guardPeriod {
		hi := min(lo+guardPeriod, m)
		if err := a.guard.tickN(hi - lo); err != nil {
			return nil, nil, err
		}
		// The batch decides every row below bound.
		base, bound := len(sel), int32(hi)
		if driven {
			sel = append(sel, cand[lo:hi]...)
			if bound = int32(n); hi < m {
				bound = cand[hi]
			}
		} else {
			for i := lo; i < hi; i++ {
				sel = append(sel, int32(i))
			}
		}
		sel = sel[:base+len(kernel.Filter(r.Cols, sel[base:]))]
		for ; d < len(refs) && refs[d].src < bound; d++ {
			i, kept := slices.BinarySearch(sel[base:], refs[d].src)
			if pass := refs[d].dec[len(refs[d].dec)-1].inSel != nil; pass && !kept {
				sel = slices.Insert(sel, base+i, refs[d].src)
			} else if !pass && kept {
				sel = slices.Delete(sel, base+i, base+i+1)
			}
		}
		a.keptBuf = km.add(a.keptBuf, sel, base, bound)
	}
	// Only a driven selection without candidates leaves refs undecided.
	base := len(sel)
	for ; d < len(refs); d++ {
		if refs[d].dec[len(refs[d].dec)-1].inSel != nil {
			sel = append(sel, refs[d].src)
		}
	}
	a.keptBuf = km.add(a.keptBuf, sel, base, int32(n))
	var kept []keptRow
	if end := len(a.keptBuf); end > start {
		kept = a.keptBuf[start:end:end]
	}
	return sel, kept, nil
}

// keptRows finds, batch by batch, the uncertain rows a stage keeps among
// its candidates: the source's indexed rows for the first stage (prev nil),
// the rows the previous stage kept (prev) for a later one. A batch with a
// half to sixteen survivors per candidate marks its survivors in a bitmap
// over the words they span, with a count of the marks before every word,
// and places each candidate with no branch on the data: a marked one's
// result row is its rank among the survivors. Any other batch merges.
type keptRows struct {
	a    *Arena // whose backings the bitmap and its ranks are cut from
	x    *uncIndex
	prev []keptRow
	c    int // the first candidate not yet found
}

// keptRows returns stage k's finder of kept rows over v.
func (a *Arena) keptRows(v *Selection, k int) keptRows {
	m := keptRows{a: a, x: &v.src.unc}
	if k > 0 {
		m.prev = v.kept
	}
	return m
}

// index returns candidate c's position in the source's uncertainty index.
func (m *keptRows) index(c int) int32 {
	if m.prev != nil {
		return m.prev[c].i
	}
	return int32(c)
}

// below returns the number of candidates whose source rows lie below row.
func (m *keptRows) below(row int32) int {
	if m.prev == nil {
		c, _ := slices.BinarySearch(m.x.rows, row)
		return c
	}
	return sort.Search(len(m.prev), func(c int) bool { return m.x.rows[m.prev[c].i] >= row })
}

// rankedShare bounds the survivors per candidate of a batch that ranks:
// from one per two candidates, below which the merge rarely advances
// through the survivors and mispredicts little, to sixteen, above which
// marking the survivors costs more than the merge's mispredicted branches
// per candidate.
const rankedShare = 16

// add appends to buf the candidates below bound that the batch's survivors
// sel[base:] keep, with their result rows: by rank with a half to sixteen
// survivors per candidate, else by merging the candidates against the
// survivors, skipping through them eight at a time.
func (m *keptRows) add(buf []keptRow, sel []int32, base int, bound int32) []keptRow {
	end := m.below(bound)
	if surv, cands := sel[base:], end-m.c; 2*len(surv) >= cands && len(surv) < rankedShare*cands {
		buf = m.rank(buf, surv, base, end)
		m.c = end
		return buf
	}
	s := base
	for c := m.c; c < end; c++ {
		i := m.index(c)
		row := m.x.rows[i]
		for s+8 <= len(sel) && sel[s+7] < row {
			s += 8
		}
		for s < len(sel) && sel[s] < row {
			s++
		}
		if s < len(sel) && sel[s] == row {
			buf = append(buf, keptRow{i: i, j: int32(s)})
		}
	}
	m.c = end
	return buf
}

// rank appends the candidates [m.c, end) that the survivors surv, result
// rows from base on, keep.
func (m *keptRows) rank(buf []keptRow, surv []int32, base, end int) []keptRow {
	a := m.a
	w0 := surv[0] >> 6
	nw := int(surv[len(surv)-1]>>6-w0) + 1
	a.rankBits, a.rankCnt = grown(a.rankBits, nw+1), grown(a.rankCnt, nw+1)
	marks, ranks := a.rankBits, a.rankCnt
	clear(marks)
	for _, row := range surv {
		marks[row>>6-w0] |= 1 << (row & 63)
	}
	r := int32(base)
	for w, word := range marks {
		ranks[w] = r
		r += int32(bits.OnesCount64(word))
	}
	n := len(buf)
	buf = slices.Grow(buf, end-m.c)[:n+end-m.c]
	for c := m.c; c < end; c++ {
		i := m.index(c)
		row := m.x.rows[i]
		// A candidate outside the survivors' words reads the zero word past
		// them.
		w := min(uint32(row>>6-w0), uint32(nw))
		word := marks[w]
		buf[n] = keptRow{i: i, j: ranks[w] + int32(bits.OnesCount64(word&(1<<(row&63)-1)))}
		n += int(word >> (row & 63) & 1)
	}
	return buf[:n]
}

// condEval decides the stages of a compiled condition per local world on
// the rows whose referenced fields are placeholders. Its row accessor is
// built once and reads the local world cur points at, so one evaluator
// serves every row of a loop.
type condEval struct {
	r      *Relation
	stages []CompiledPred
	row    int32
	ref    []uint16
	pos    []int      // the component columns of ref
	hide   []presence // the earlier decisions' masks that hide one of ref
	cur    *CompRow
	get    func(attr uint16) int32
}

// condEval returns an evaluator of v's condition, nil when v has none.
func (v *Selection) condEval() *condEval {
	if v.stages == nil {
		return nil
	}
	e := &condEval{r: v.src, stages: v.stages}
	e.get = func(ai uint16) int32 {
		if k := slices.Index(e.ref, ai); k >= 0 {
			return e.cur.Vals[e.pos[k]]
		}
		return e.r.Cols[ai][e.row]
	}
	return e
}

// rejects reports whether one of the conjuncts conj that reads none of
// u's placeholders fails on the template: its cells are certain, so u then
// fails the stage in every local world, the verdict mask would reach.
func (e *condEval) rejects(conj []CompiledPred, u *urow) bool {
	e.row, e.ref = u.src, nil
	for _, p := range conj {
		if !readsAny(p, u.attrs) && !p.Eval(e.get) {
			return true
		}
	}
	return false
}

// readsAny reports whether condition p reads one of the attributes attrs.
func readsAny(p CompiledPred, attrs []uint16) bool {
	switch p := p.(type) {
	case compiledConst:
		return containsAttr(attrs, p.ai)
	case compiledRanges:
		return containsAttr(attrs, p.ai)
	case compiledAttrAttr:
		return containsAttr(attrs, p.a) || containsAttr(attrs, p.b)
	}
	return intersects(p.Attrs(), attrs)
}

// mask decides decision i of row u — its stage's condition on the
// placeholders ref — per local world of comp, their component, into pass
// (reused when large enough): pass[w] when the condition holds at w and
// every ref field is present there, in the source and under prior, the
// masks of u's earlier decisions, wherever one's inSel holds it.
//
//maybms:unguarded bounded single-component probe; the operator loops that call it tick per row
func (e *condEval) mask(u *urow, i int, comp *Component, prior []presence, pass []bool) []bool {
	d := &u.dec[i]
	e.row, e.ref, e.pos, e.hide = u.src, d.ref, e.pos[:0], e.hide[:0]
	for _, at := range d.ref {
		e.pos = append(e.pos, comp.Pos(FieldID{Rel: e.r.id, Row: u.src, Attr: at}))
	}
	for j := range prior[:i] {
		if intersects(u.dec[j].inSel, d.ref) {
			e.hide = append(e.hide, prior[j])
		}
	}
	cp := e.stages[d.stage]
	pass = slices.Grow(pass[:0], len(comp.Rows))[:len(comp.Rows)]
	for w := range comp.Rows {
		e.cur = &comp.Rows[w]
		pass[w] = !slices.ContainsFunc(e.pos, e.cur.IsAbsent) && !anyFails(e.hide, comp, w) && cp.Eval(e.get)
	}
	return pass
}

// fieldHasAbsence reports whether field f is absent in some local world.
func (a *Arena) fieldHasAbsence(f FieldID) bool {
	c := a.ComponentOf(f)
	if c == nil {
		return false
	}
	return compFieldHasAbsence(c, f)
}

// compFieldHasAbsence reports whether f is absent in some local world.
//
//maybms:unguarded bounded single-component probe; the planning loops that call it tick per candidate
func compFieldHasAbsence(c *Component, f FieldID) bool {
	col := c.Pos(f)
	for _, r := range c.Rows {
		if r.IsAbsent(col) {
			return true
		}
	}
	return false
}

// Rename computes res := δ(src) with the attribute renamings given as
// old → new pairs; the data is read like an all-attribute projection.
func (a *Arena) Rename(res, src string, oldNew map[string]string) error {
	if err := a.materialize(); err != nil {
		return err
	}
	r := a.Rel(src)
	if r == nil {
		return fmt.Errorf("engine: unknown relation %q", src)
	}
	names := slices.Clone(r.Attrs)
	for old, n := range oldNew {
		ai, err := r.AttrIndex(old)
		if err != nil {
			return err
		}
		names[ai] = n
	}
	for i, n := range names {
		if slices.Contains(names[:i], n) {
			return fmt.Errorf("engine: rename produces duplicate attribute %q", n)
		}
	}
	if err := a.selectProject(res, src, nil, nil); err != nil {
		return err
	}
	a.pending.out.Attrs = names
	return nil
}

// allAttrs returns the attribute indexes of r in order.
func allAttrs(r *Relation) []uint16 {
	out := make([]uint16, len(r.Attrs))
	for i := range out {
		out[i] = uint16(i)
	}
	return out
}

// fields returns the fields of row at the given attributes.
func (r *Relation) fields(row int32, attrs []uint16) []FieldID {
	out := make([]FieldID, len(attrs))
	for i, at := range attrs {
		out[i] = FieldID{Rel: r.id, Row: row, Attr: at}
	}
	return out
}

// intersects reports whether xs and ys share an attribute.
func intersects(xs, ys []uint16) bool {
	for _, x := range xs {
		if containsAttr(ys, x) {
			return true
		}
	}
	return false
}

func containsAttr(xs []uint16, a uint16) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}
