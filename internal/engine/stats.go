package engine

import "sort"

// Stats summarizes a relation's uniform representation in the terms of
// Figure 27: component counts, |C| (component value rows) and |R| (template
// rows).
type Stats struct {
	NumComp    int // components defining at least one field of the relation
	NumCompGT1 int // components with more than one placeholder of the relation
	CSize      int // |C|: (field, local world) value pairs of the relation
	RSize      int // |R|: template rows
}

// View is the read-only surface shared by Store, Snapshot and Arena:
// representation statistics and the confidence operators are written once
// against it, and the reference WSD bridge (internal/bridge) reads engine
// state through it — on the live store, a frozen snapshot, or a session's
// arena results alike.
type View interface {
	// Rel returns the named relation, or nil.
	Rel(name string) *Relation
	// RelByID resolves the relation a FieldID refers to, or nil.
	RelByID(id int32) *Relation
	// ComponentOf returns the component defining field f, or nil.
	ComponentOf(f FieldID) *Component
	// EachComp visits every component visible through the view.
	EachComp(fn func(*Component))
}

var (
	_ View = (*Store)(nil)
	_ View = (*Snapshot)(nil)
	_ View = (*Arena)(nil)
)

// RelByID returns the relation with the given id, or nil.
func (s *Store) RelByID(id int32) *Relation {
	if id < 0 || int(id) >= len(s.rels) {
		return nil
	}
	return s.rels[id]
}

// EachComp visits every live component.
func (s *Store) EachComp(fn func(*Component)) { s.idx.eachComp(fn) }

// Stats computes the representation statistics of one relation.
func (s *Store) Stats(rel string) Stats { return statsOf(s, rel) }

// statsOf computes the statistics of relation rel of v: those of the
// identity selection over it (Selection.Stats).
func statsOf(v View, rel string) Stats {
	r := v.Rel(rel)
	if r == nil {
		return Stats{}
	}
	return identity(v, r).Stats()
}

// AllStats returns the statistics of every live relation, keyed by relation
// id: each equals Stats of that relation, and all come from one pass over
// the components rather than one pass over each relation's placeholders.
// The work and the memory are those of the components and the live
// relations; dropped relation ids cost nothing. Nothing is cached:
// components merge and trim under relations that stay the same objects.
func (sn *Snapshot) AllStats() map[int32]Stats {
	// relAcc counts one relation; last is the component its fields were
	// last counted under (component ids are positive), n how many of them
	// that component holds.
	type relAcc struct {
		st      Stats
		absence bool
		last, n int32
	}
	accs := make(map[int32]*relAcc, len(sn.relID))
	for _, id := range sn.relID {
		r := sn.rels[id]
		accs[id] = &relAcc{st: Stats{RSize: r.NumRows()}, absence: r.absence}
	}
	rel, a := int32(-1), (*relAcc)(nil)
	sn.idx.eachComp(func(c *Component) {
		for col, f := range c.Fields {
			if f.Rel != rel {
				rel, a = f.Rel, accs[f.Rel]
			}
			if a.last != c.ID {
				a.last, a.n = c.ID, 0
				a.st.NumComp++
			}
			if a.n++; a.n == 2 {
				a.st.NumCompGT1++
			}
			a.st.CSize += presentWorlds(c, col, a.absence)
		}
	})
	out := make(map[int32]Stats, len(accs))
	for id, a := range accs {
		out[id] = a.st
	}
	return out
}

// presentWorlds counts the local worlds of c in which field column col is
// present; absence is the flag of the field's relation, clear when no field
// of it is absent anywhere.
//
//maybms:unguarded catalog statistics, one bounded pass over a component's local worlds
func presentWorlds(c *Component, col int, absence bool) int {
	if !absence {
		return len(c.Rows)
	}
	k := 0
	for _, row := range c.Rows {
		if !row.IsAbsent(col) {
			k++
		}
	}
	return k
}

// ComponentSizeHistogram returns, for one relation, how many components
// define exactly k of its placeholders (the distribution of Figure 28).
func (s *Store) ComponentSizeHistogram(rel string) map[int]int {
	r := s.Rel(rel)
	if r == nil {
		return nil
	}
	fieldsPerComp := make(map[int32]int)
	for i, row := range r.unc.rows {
		for _, a := range r.unc.at(i) {
			f := FieldID{Rel: r.id, Row: row, Attr: a}
			if cid, ok := s.idx.compOf(f); ok {
				fieldsPerComp[cid]++
			}
		}
	}
	hist := make(map[int]int)
	for _, n := range fieldsPerComp {
		hist[n]++
	}
	return hist
}

// HistogramSizes returns the sorted sizes present in a histogram.
func HistogramSizes(h map[int]int) []int {
	out := make([]int, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// TotalPlaceholders returns the number of uncertain fields of a relation.
func (s *Store) TotalPlaceholders(rel string) int { return totalPlaceholders(s, rel) }

func totalPlaceholders(v View, rel string) int {
	r := v.Rel(rel)
	if r == nil {
		return 0
	}
	return len(r.unc.attrs)
}
