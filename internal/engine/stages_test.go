package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"maybms/internal/relation"
)

// compForms returns a form of every component of s that is independent of
// component ids and of the order of fields within a component: its fields,
// sorted and named by relation, then per local world, in order, the bits of
// its probability and the fields' cells in that order. The forms are
// sorted.
func compForms(s *Store) []string {
	sn := s.Snapshot()
	var out []string
	s.EachComp(func(c *Component) {
		fields := slices.Clone(c.Fields)
		slices.SortFunc(fields, func(a, b FieldID) int {
			if lessFieldID(a, b) {
				return -1
			}
			if a == b {
				return 0
			}
			return 1
		})
		var b strings.Builder
		for _, f := range fields {
			fmt.Fprintf(&b, "%s.%d.%d ", sn.RelByID(f.Rel).Name, f.Row, f.Attr)
		}
		for _, row := range c.Rows {
			fmt.Fprintf(&b, "| %x:", math.Float64bits(row.P))
			for _, f := range fields {
				if col := c.Pos(f); row.IsAbsent(col) {
					b.WriteString(" ⊥")
				} else {
					fmt.Fprintf(&b, " %d", row.Vals[col])
				}
			}
		}
		out = append(out, b.String())
	})
	slices.Sort(out)
	return out
}

// checkStagesMatchChain runs the chain σ_{pk}(…σ_{p1}(rel)), with a final
// π onto keep unless keep is nil, on two clones of s: once as one staged
// operator (Stages), read in place before it is built (CheckView), and
// once as separate Select calls and a Project over built intermediates,
// dropped afterwards. Both must give the same template, the same
// components up to field order with the same local worlds, the same Stats
// and bit-identical masses.
func checkStagesMatchChain(t *testing.T, label string, s *Store, rel string, stages []Pred, keep []string) {
	t.Helper()
	staged, chained := s.Clone(), s.Clone()
	var pending []TupleMasses
	Commit(t, staged, func(a *Arena) error {
		var err error
		if keep == nil {
			err = a.Select("res", rel, Stages(stages))
		} else {
			err = a.SelectProject("res", rel, Stages(stages), keep...)
		}
		if err != nil {
			return err
		}
		if pending, err = a.PossibleMasses("res"); err != nil {
			return err
		}
		CheckView(t, 0, a, "res")
		return nil
	})
	Commit(t, chained, func(a *Arena) error {
		src := rel
		var temps []string
		for k, p := range stages {
			name := "res"
			if k < len(stages)-1 || keep != nil {
				name = fmt.Sprintf("t%d", k)
				temps = append(temps, name)
			}
			if err := a.Select(name, src, p); err != nil {
				return err
			}
			src = name
		}
		if keep != nil {
			if err := a.Project("res", src, keep...); err != nil {
				return err
			}
		}
		for i := len(temps) - 1; i >= 0; i-- {
			if err := a.DropRelation(temps[i]); err != nil {
				return err
			}
		}
		return nil
	})
	checkSameResult(t, label, staged, chained, pending)
}

// checkSameResult checks that the relation res of stores got and want has
// the same template, Stats and components up to field order with the same
// local worlds, and that its masses — pending, read in place before got's
// res was built, and built — are bit-identical to want's.
func checkSameResult(t *testing.T, label string, got, want *Store, pending []TupleMasses) {
	t.Helper()
	for _, st := range []*Store{got, want} {
		if err := st.Validate(1e-9); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	if g, w := fmt.Sprint(got.Rel("res").Cols), fmt.Sprint(want.Rel("res").Cols); g != w {
		t.Fatalf("%s: template %s, want %s", label, g, w)
	}
	if g, w := got.Stats("res"), want.Stats("res"); g != w {
		t.Fatalf("%s: stats %+v, want %+v", label, g, w)
	}
	if g, w := compForms(got), compForms(want); !slices.Equal(g, w) {
		t.Fatalf("%s: components differ\ngot:  %q\nwant: %q", label, g, w)
	}
	wantM, err := PossibleMasses(want, "res")
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string][]TupleMasses{"pending": pending, "built": nil} {
		if m == nil {
			if m, err = PossibleMasses(got, "res"); err != nil {
				t.Fatal(err)
			}
		}
		if len(m) != len(wantM) {
			t.Fatalf("%s: %s result has %d possible tuples, want %d", label, name, len(m), len(wantM))
		}
		for i := range m {
			g, w := m[i], wantM[i]
			same := CompareTuples(g.Tuple, w.Tuple) == 0 && g.Certain == w.Certain && len(g.Masses) == len(w.Masses)
			for k := 0; same && k < len(g.Masses); k++ {
				same = math.Float64bits(g.Masses[k]) == math.Float64bits(w.Masses[k])
			}
			if !same {
				t.Fatalf("%s: %s tuple %d masses %+v, want %+v", label, name, i, g, w)
			}
		}
	}
}

// stagePred draws one stage's condition over attrs: atoms A θ c and A θ B,
// and ∧/∨ nests of them.
func stagePred(rng *rand.Rand, attrs []string, depth int) Pred {
	if depth > 0 && rng.Intn(2) == 0 {
		kids := make([]Pred, 2)
		for i := range kids {
			kids[i] = stagePred(rng, attrs, depth-1)
		}
		if rng.Intn(2) == 0 {
			return And(kids)
		}
		return Or(kids)
	}
	theta := relation.Op(rng.Intn(6))
	if rng.Intn(3) == 0 {
		a, b := attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))]
		if a != b {
			return AttrAttr{A: a, Theta: theta, B: b}
		}
	}
	return AttrConst{Attr: attrs[rng.Intn(len(attrs))], Theta: theta, C: int32(rng.Intn(4))}
}

// A chain of two or three selections run as one staged operator equals the
// chain run step by step: on small stores whose components span rows and
// relations and whose fields record absence, so that rows are decided per
// local world at several stages, fail in some worlds, and — under a final
// π — drop fields carrying absence and become carriers; and on a store
// large enough for postings to drive the first stage.
func TestStagesMatchChain(t *testing.T) {
	// Fixed shapes. R's rows hold or-sets in separate components (row 0),
	// in one composed component (row 1), beside certain cells (row 2), and
	// with absence of their own (row 3):
	//
	//	row  A          B          C
	//	0    {1,2}      {3,4}      0
	//	1    {1,2} ⋈    {1,3}      1
	//	2    1          {3,5}      0
	//	3    {1,⊥}      3          {0,1}
	fixed := NewStore()
	if _, err := fixed.AddRelation("R", []string{"A", "B", "C"}, [][]int32{{0, 0, 1, 0}, {0, 0, 0, 3}, {0, 1, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct {
		row   int
		attr  string
		vals  []int32
		probs []float64
	}{
		{0, "A", []int32{1, 2}, []float64{0.3, 0.7}},
		{0, "B", []int32{3, 4}, []float64{0.6, 0.4}},
		{1, "A", []int32{1, 2}, []float64{0.2, 0.8}},
		{1, "B", []int32{1, 3}, []float64{0.9, 0.1}},
		{2, "B", []int32{3, 5}, []float64{0.45, 0.55}},
		{3, "A", []int32{1, 2}, []float64{0.35, 0.65}},
		{3, "C", []int32{0, 1}, []float64{0.15, 0.85}},
	} {
		if err := fixed.SetUncertain("R", o.row, o.attr, o.vals, o.probs); err != nil {
			t.Fatal(err)
		}
	}
	r := fixed.Rel("R")
	if _, err := fixed.mergeComps(r.fields(1, []uint16{0, 1})...); err != nil {
		t.Fatal(err)
	}
	absent := FieldID{Rel: r.id, Row: 3, Attr: 0}
	c := fixed.ComponentOf(absent)
	c.Rows[1].Absent = c.Rows[1].Absent.Set(c.Pos(absent))
	r.absence = true
	for i, sh := range []struct {
		stages []Pred
		keep   []string
	}{
		{[]Pred{Eq("A", 1), Eq("B", 3)}, nil},
		{[]Pred{Eq("A", 1), Eq("B", 3)}, []string{"C"}}, // a carrier of both stages
		{[]Pred{Eq("A", 1), Eq("B", 3)}, []string{"B"}}, // stage 1's absence joins B's component
		{[]Pred{Eq("A", 1), Eq("B", 1)}, []string{"C"}}, // row 1's B is hidden where A ≠ 1
		{[]Pred{Eq("A", 1), AttrAttr{A: "B", Theta: relation.GT, B: "C"}}, []string{"A"}},
		{[]Pred{Ne("C", 1), Eq("A", 1), Or{Eq("B", 3), Eq("B", 1)}}, []string{"C"}},
		{[]Pred{AttrAttr{A: "A", Theta: relation.LT, B: "B"}, Eq("C", 0)}, []string{"A", "C"}},
	} {
		checkStagesMatchChain(t, fmt.Sprintf("shape %d: %v π%v", i, Stages(sh.stages), sh.keep), fixed, "R", sh.stages, sh.keep)
	}

	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 300; trial++ {
		s := RandomConfStore(t, int64(trial))
		rel := "T0"
		if s.Rel("T1") != nil && rng.Intn(2) == 0 {
			rel = "T1"
		}
		attrs := s.Rel(rel).Attrs
		stages := make([]Pred, 2+rng.Intn(2))
		for k := range stages {
			stages[k] = stagePred(rng, attrs, rng.Intn(2))
		}
		var keep []string
		if rng.Intn(3) > 0 {
			perm := rng.Perm(len(attrs))
			for _, i := range perm[:1+rng.Intn(len(attrs))] {
				keep = append(keep, attrs[i])
			}
		}
		checkStagesMatchChain(t, fmt.Sprintf("trial %d: %v π%v", trial, Stages(stages), keep), s, rel, stages, keep)
	}

	s := postingStore(t, 5, 6000)
	for trial := 0; trial < 30; trial++ {
		rel := []string{"R", "T", "T2"}[trial%3]
		stages := []Pred{randomPred(rng, 1), randomPred(rng, 1)}
		if trial%4 == 0 {
			stages = append(stages, AttrAttr{A: "A", Theta: relation.LE, B: "B"})
		}
		var keep []string
		if trial%2 == 0 {
			keep = []string{"C", "W"}
		}
		checkStagesMatchChain(t, fmt.Sprintf("large %s trial %d: %v π%v", rel, trial, Stages(stages), keep), s, rel, stages, keep)
	}
}

// conjPred draws a conjunction of two or three conjuncts over attrs, each
// an atom A θ c with c below dom, an atom A θ B, or a disjunction of two
// atoms over one attribute — so a row holding a placeholder in one
// conjunct's attribute is often rejected by another on its certain cells.
func conjPred(rng *rand.Rand, attrs []string, dom int) And {
	atom := func(at string) Pred {
		return AttrConst{Attr: at, Theta: relation.Op(rng.Intn(6)), C: int32(rng.Intn(dom))}
	}
	kids := make(And, 2+rng.Intn(2))
	for i := range kids {
		at := attrs[rng.Intn(len(attrs))]
		switch rng.Intn(5) {
		case 0:
			kids[i] = AttrAttr{A: at, Theta: relation.Op(rng.Intn(6)), B: attrs[rng.Intn(len(attrs))]}
		case 1:
			kids[i] = Or{atom(at), atom(at)}
		default:
			kids[i] = atom(at)
		}
	}
	return kids
}

// runStaged runs σ_{pk}(…σ_{p1}(rel)), with a final π onto keep unless keep
// is nil, as one selection on a clone of s, and returns the clone after
// the commit, the result's masses read in place before it was built, and
// the rows the selection decided per local world.
func runStaged(t *testing.T, s *Store, rel string, stages []Pred, keep []string) (*Store, []TupleMasses, [][2]int32) {
	t.Helper()
	var p Pred = Stages(stages)
	if len(stages) == 1 {
		p = stages[0]
	}
	out := s.Clone()
	var pending []TupleMasses
	var decided func() [][2]int32
	Commit(t, out, func(a *Arena) error {
		decided = RecordDecisions(a)
		var err error
		if keep == nil {
			err = a.Select("res", rel, p)
		} else {
			err = a.SelectProject("res", rel, p, keep...)
		}
		if err != nil {
			return err
		}
		pending, err = a.PossibleMasses("res")
		return err
	})
	return out, pending, decided()
}

// templateRejects reports whether a conjunct of p reading none of row's
// placeholders fails on r's template.
func templateRejects(t *testing.T, r *Relation, p And, row int32) bool {
	t.Helper()
	get := func(a uint16) int32 { return r.Cols[a][row] }
	for _, kid := range p {
		cp, err := kid.Compile(r)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(cp.Attrs(), func(a uint16) bool { return get(a) == Placeholder }) && !cp.Eval(get) {
			return true
		}
	}
	return false
}

// A stage that is a conjunction decides per local world exactly the rows
// whose conjuncts reading none of their placeholders hold on the template;
// the others fail in every world without a decision. The result equals the
// one of deciding every row per world — each stage wrapped as a one-kid
// disjunction, which the operator decides row by row — bit for bit, and
// the chain run step by step. Single stages and chains of two or three, on
// small random stores and on one large enough for postings to drive the
// first stage.
func TestTemplateRejection(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	large := postingStore(t, 6, 6000)
	var rejected [2][2]int // [large][staged]
	for trial := 0; trial < 240; trial++ {
		s, rel, dom, big := large, "R", 24, 1
		if trial%4 != 3 {
			s, rel, dom, big = RandomConfStore(t, int64(1000+trial)), "T0", 4, 0
		}
		attrs := s.Rel(rel).Attrs
		stages := make([]Pred, 1+rng.Intn(3))
		for k := range stages {
			stages[k] = conjPred(rng, attrs, dom)
		}
		var keep []string
		if rng.Intn(2) == 0 {
			for _, i := range rng.Perm(len(attrs))[:1+rng.Intn(len(attrs))] {
				keep = append(keep, attrs[i])
			}
		}
		label := fmt.Sprintf("trial %d: %v π%v", trial, Stages(stages), keep)
		checkStagesMatchChain(t, label, s, rel, stages, keep)

		wrapped := make([]Pred, len(stages))
		for k, p := range stages {
			wrapped[k] = Or{p}
		}
		got, pending, decided := runStaged(t, s, rel, stages, keep)
		want, _, all := runStaged(t, s, rel, wrapped, keep)
		checkSameResult(t, label+" against per-world decisions", got, want, pending)
		r := s.Rel(rel)
		var expect [][2]int32
		for _, d := range all {
			if templateRejects(t, r, stages[d[0]].(And), d[1]) {
				rejected[big][min(len(stages)-1, 1)]++
				continue
			}
			expect = append(expect, d)
		}
		if !slices.Equal(decided, expect) {
			t.Fatalf("%s: decided (stage, row) %v per local world, want %v", label, decided, expect)
		}
	}
	for big := range rejected {
		for staged, n := range rejected[big] {
			if n == 0 {
				t.Errorf("no row rejected on the template (large store %v, staged %v)", big == 1, staged == 1)
			}
		}
	}
}
