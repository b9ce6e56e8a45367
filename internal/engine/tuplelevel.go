package engine

import (
	"fmt"
	"sort"
)

// This file builds the tuple-level view of one relation directly on the
// columnar representation: the native analogue of what the WSD bridge plus
// confidence.tupleLevel used to materialize as a core.WSD. All fields of a
// template row end up defined within a single component, so across-world
// operators (conf.go) can score whole tuples per local world. The view is
// computed on private copies of the reachable components — the snapshot,
// arena and store are never modified — and its size depends only on the
// relation's own placeholders: fields of other relations sharing a component
// are marginalized away, not converted.

// tlGroup is one independent factor of the tuple-level view: a composed,
// marginalized component together with the template rows whose uncertain
// fields it defines. Distinct groups are stochastically independent.
type tlGroup struct {
	comp *Component
	rows []tlRow
}

// tlRow maps one template row of the viewed relation into its group's
// component: cols[a] is the component column holding attribute a, or -1 when
// the attribute is certain in the template.
type tlRow struct {
	row  int32
	cols []int
}

// tupleView is the tuple-level normalization of one relation: its certain
// rows read straight off the template, its uncertain rows grouped by the
// composed components defining them.
type tupleView struct {
	rel *Relation
	// certain lists the template rows without placeholders (present in
	// every world).
	certain []int32
	groups  []*tlGroup
}

// tupleLevelView builds the tuple-level view of rel as seen through v. It
// fails on unknown relations and when composing components would exceed the
// MaxCompRows blow-up guard (the NP-hardness of Section 6 surfacing as an
// error, exactly as on the store's own compositions).
func tupleLevelView(v View, rel string) (*tupleView, error) {
	r := v.Rel(rel)
	if r == nil {
		return nil, fmt.Errorf("engine: unknown relation %q", rel)
	}
	unc := &r.unc
	n := r.NumRows()
	tv := &tupleView{rel: r, certain: make([]int32, 0, n-len(unc.rows))}
	for i, k := 0, 0; i < n; i++ {
		if k < len(unc.rows) && unc.rows[k] == int32(i) {
			k++
			continue
		}
		tv.certain = append(tv.certain, int32(i))
	}
	if len(unc.rows) == 0 {
		return tv, nil
	}

	// Restrict every reachable component to the fields of rel, marginalizing
	// the rest: local worlds indistinguishable on the kept fields merge,
	// summing their probabilities. Components are keyed by pointer — the
	// arena overlay already resolves adopted copies — and the restricted
	// copies are private to the view.
	guard := guardOf(v)
	restricted := make(map[*Component]*Component)
	rowsOf := make(map[*Component][]int32)
	for i, row := range unc.rows {
		if err := guard.Tick(); err != nil {
			return nil, err
		}
		for _, a := range unc.at(i) {
			f := FieldID{Rel: r.id, Row: row, Attr: a}
			c := v.ComponentOf(f)
			if c == nil {
				return nil, fmt.Errorf("engine: field %v has no component", f)
			}
			if _, ok := restricted[c]; !ok {
				rc, err := restrictToRel(guard, c, r.id)
				if err != nil {
					return nil, err
				}
				restricted[c] = rc
			}
		}
	}
	for c, rc := range restricted {
		seen := make(map[int32]bool)
		for _, f := range rc.Fields {
			if !seen[f.Row] {
				seen[f.Row] = true
				rowsOf[c] = append(rowsOf[c], f.Row)
			}
		}
	}

	// Union-find over template rows: rows sharing a component belong to one
	// group, and transitively so through chains of shared components.
	parent := make(map[int32]int32, len(unc.rows))
	var find func(x int32) int32
	find = func(x int32) int32 {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(x, y int32) { parent[find(x)] = find(y) }
	for _, rows := range rowsOf {
		for _, row := range rows[1:] {
			union(rows[0], row)
		}
	}

	// Compose each group's restricted components into one. Iterate rows in
	// template order so group order — and therefore the floating-point
	// combination order downstream — is deterministic.
	compsOf := make(map[int32][]*Component)
	for c, rows := range rowsOf {
		compsOf[find(rows[0])] = append(compsOf[find(rows[0])], restricted[c])
	}
	groupOf := make(map[int32]*tlGroup)
	for i, row := range unc.rows {
		if err := guard.Tick(); err != nil {
			return nil, err
		}
		uattrs := unc.at(i)
		root := find(row)
		g := groupOf[root]
		if g == nil {
			cs := compsOf[root]
			// Deterministic composition order: sort by first field.
			sort.Slice(cs, func(i, j int) bool { return lessFieldID(cs[i].Fields[0], cs[j].Fields[0]) })
			merged := cs[0]
			for _, c := range cs[1:] {
				if len(merged.Rows)*len(c.Rows) > MaxCompRows {
					return nil, fmt.Errorf("engine: tuple-level normalization of %q would exceed %d local worlds (the exponential blow-up of Section 6); compute confidence on a smaller result", rel, MaxCompRows)
				}
				merged = composeComponents(merged, c)
				compressComponent(merged)
			}
			g = &tlGroup{comp: merged}
			groupOf[root] = g
			tv.groups = append(tv.groups, g)
		}
		cols := make([]int, len(r.Attrs))
		for a := range cols {
			cols[a] = -1
		}
		for _, a := range uattrs {
			f := FieldID{Rel: r.id, Row: row, Attr: a}
			col := g.comp.Pos(f)
			if col < 0 {
				return nil, fmt.Errorf("engine: field %v missing from its composed component", f)
			}
			cols[a] = col
		}
		g.rows = append(g.rows, tlRow{row: row, cols: cols})
	}
	return tv, nil
}

// restrictToRel copies component c keeping only the fields of relation rel,
// merging local worlds that become indistinguishable and summing their
// probabilities — the engine-native marginalization the WSD bridge used to
// perform through relation.Value maps. It ticks g per local world: the
// component may hold up to MaxCompRows of them (nil guard ticks for free).
// The kept fields are sorted, so the copy — and the group composition order
// it keys — does not depend on the order operators added them to c.
func restrictToRel(g *Guard, c *Component, rel int32) (*Component, error) {
	var keep []int
	for i, f := range c.Fields {
		if f.Rel == rel {
			keep = append(keep, i)
		}
	}
	sort.Slice(keep, func(i, j int) bool { return lessFieldID(c.Fields[keep[i]], c.Fields[keep[j]]) })
	rc := &Component{ID: c.ID, Fields: make([]FieldID, len(keep)), pos: make(map[FieldID]int, len(keep))}
	for i, col := range keep {
		rc.Fields[i] = c.Fields[col]
		rc.pos[c.Fields[col]] = i
	}
	seen := make(map[string]int, len(c.Rows))
	key := make([]byte, 0, 4*len(keep))
	for _, row := range c.Rows {
		if err := g.Tick(); err != nil {
			return nil, err
		}
		key = key[:0]
		for _, col := range keep {
			key = appendFieldKey(key, row.Vals[col], row.IsAbsent(col))
		}
		if j, ok := seen[string(key)]; ok {
			rc.Rows[j].P += row.P
			continue
		}
		vals := make([]int32, len(keep))
		var absent Bitset
		for i, col := range keep {
			vals[i] = row.Vals[col]
			if row.IsAbsent(col) {
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
