package engine

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"maybms/internal/relation"
)

// withoutPostings returns a view of sn's state whose relations carry no
// posting slots, so every selection over it scans: the reference the
// driven selections are compared with.
func withoutPostings(sn *Snapshot) *Snapshot {
	c := *sn
	c.rels = make([]*Relation, len(sn.rels))
	for i, r := range sn.rels {
		if r != nil {
			nr := *r
			nr.posts = nil
			c.rels[i] = &nr
		}
	}
	return &c
}

// postingStore builds a seeded random store whose relation R has enough
// rows for postings: skewed small-domain columns A–D, a column W whose
// values span too widely for one, or-sets on every column (some composed
// across the fields of a row) and, after a committed selection, a second
// base relation T whose fields record absence.
func postingStore(t testing.TB, seed int64, rows int) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	attrs := []string{"A", "B", "C", "D", "W"}
	doms := []int{3, 8, 20, 60, 50000}
	cols := make([][]int32, len(attrs))
	for a := range cols {
		cols[a] = make([]int32, rows)
		for i := range cols[a] {
			v := rng.Intn(doms[a])
			if a < 4 && rng.Intn(3) == 0 {
				v = 1 // a heavy value beside rare ones
			}
			cols[a][i] = int32(v)
		}
	}
	s := NewStore()
	if _, err := s.AddRelation("R", attrs, cols); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows/40; i++ {
		row, a := rng.Intn(rows), rng.Intn(len(attrs))
		if s.Rel("R").Cols[a][row] == Placeholder {
			continue
		}
		alts := []int32{int32(rng.Intn(doms[a])), int32(rng.Intn(doms[a])) + 1}
		if alts[0] == alts[1] {
			alts = alts[:1]
		}
		if err := s.SetUncertain("R", row, attrs[a], alts, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Compose the or-sets of some rows with two or more of them.
	r := s.Rel("R")
	for i, row := range r.unc.rows {
		if at := r.unc.at(i); len(at) > 1 && rng.Intn(2) == 0 {
			if _, err := s.mergeComps(r.fields(row, at)...); err != nil {
				t.Fatal(err)
			}
		}
	}
	// T drops the rows where A = B = 0; a row whose A or B is an or-set
	// that can be 0 keeps copies absent where both are.
	Commit(t, s, func(a *Arena) error {
		return a.Select("T", "R", Or{Ne("A", 0), Ne("B", 0)})
	})
	Commit(t, s, func(a *Arena) error {
		return a.Select("T2", "T", Ne("A", 0))
	})
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	return s
}

// randomPred draws a condition over R's attributes: every θ, constants
// below, inside and above the domains (negative ones and the sentinel
// included), A θ B atoms, and ∧/∨ nests up to depth.
func randomPred(rng *rand.Rand, depth int) Pred {
	attrs := []string{"A", "B", "C", "D", "W"}
	thetas := []relation.Op{relation.EQ, relation.NE, relation.LT, relation.LE, relation.GT, relation.GE}
	if depth > 0 && rng.Intn(3) > 0 {
		kids := make([]Pred, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randomPred(rng, depth-1)
		}
		if rng.Intn(2) == 0 {
			return And(kids)
		}
		return Or(kids)
	}
	theta := thetas[rng.Intn(len(thetas))]
	if rng.Intn(3) == 0 {
		theta = relation.EQ // the selective atoms a selection starts from
	}
	if rng.Intn(6) == 0 {
		return AttrAttr{A: attrs[rng.Intn(4)], Theta: theta, B: attrs[rng.Intn(4)]}
	}
	c := int32(rng.Intn(24) - 3)
	switch rng.Intn(8) {
	case 0:
		c = Placeholder
	case 1:
		c = -1 << 31
	case 2:
		c = 1<<31 - 1
	}
	return AttrConst{Attr: attrs[rng.Intn(len(attrs))], Theta: theta, C: c}
}

// checkSelection runs σ_p over rel on the snapshot and on its scan-only
// view and fails unless both give the same selection vector, statistics
// and built relation. It reports whether postings drove the selection.
func checkSelection(t *testing.T, sn *Snapshot, rel string, p Pred) (driven bool) {
	t.Helper()
	r := sn.Rel(rel)
	cp, err := p.Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	_, _, driven = drive(r, cp, nil)
	got, want := NewArena(sn), NewArena(withoutPostings(sn))
	for _, a := range []*Arena{got, want} {
		if err := a.Select("x", rel, p); err != nil {
			t.Fatalf("σ_%v(%s): %v", p, rel, err)
		}
	}
	gv, wv := got.Selection("x"), want.Selection("x")
	if gv.Sel() == nil || !slices.Equal(gv.Sel(), wv.Sel()) {
		t.Fatalf("σ_%v(%s) (driven %v): %d rows, the scan keeps %d", p, rel, driven, len(gv.Sel()), len(wv.Sel()))
	}
	if gs, ws := gv.Stats(), wv.Stats(); gs != ws {
		t.Fatalf("σ_%v(%s): stats %+v, the scan's %+v", p, rel, gs, ws)
	}
	gr, wr := got.Rel("x"), want.Rel("x")
	for c := range gr.Cols {
		if !slices.Equal(gr.Cols[c], wr.Cols[c]) {
			t.Fatalf("σ_%v(%s): column %s differs from the scan's", p, rel, gr.Attrs[c])
		}
	}
	return driven
}

// TestPostingsMatchScan: on seeded random stores, every selection a posting
// drives gives the scan's selection vector, statistics and result.
func TestPostingsMatchScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s := postingStore(t, seed, postingMinRows+1000)
		sn := s.Snapshot()
		rng := rand.New(rand.NewSource(seed))
		driven := 0
		const n = 80
		for i := 0; i < n; i++ {
			p := randomPred(rng, 3)
			for _, rel := range []string{"R", "T", "T2"} {
				if checkSelection(t, sn, rel, p) && rel == "R" {
					driven++
				}
			}
		}
		if driven < n/5 {
			t.Fatalf("seed %d: postings drove %d of %d selections on R", seed, driven, n)
		}
	}
}

// TestPostingAtomsMatchScan: every θ against constants below, across and
// above each column's values (the sentinel and the int32 extremes
// included), alone and beside a selective conjunct, keeps the scan's rows.
func TestPostingAtomsMatchScan(t *testing.T) {
	s := postingStore(t, 2, postingMinRows+300)
	sn := s.Snapshot()
	thetas := []relation.Op{relation.EQ, relation.NE, relation.LT, relation.LE, relation.GT, relation.GE}
	consts := []int32{-1 << 31, -2, Placeholder, 0, 1, 2, 3, 5, 7, 8, 9, 19, 20, 59, 60, 1<<31 - 1}
	for _, attr := range []string{"A", "B", "C", "D", "W"} {
		for _, theta := range thetas {
			for _, c := range consts {
				atom := AttrConst{Attr: attr, Theta: theta, C: c}
				for _, p := range []Pred{atom, And{Eq("D", 7), atom}, Or{atom, Eq("C", 4)}, Or{atom, Eq(attr, 4)}} {
					got, want := NewArena(sn), NewArena(withoutPostings(sn))
					for _, a := range []*Arena{got, want} {
						if err := a.Select("x", "R", p); err != nil {
							t.Fatal(err)
						}
					}
					if g, w := got.Selection("x").Sel(), want.Selection("x").Sel(); !slices.Equal(g, w) {
						t.Fatalf("σ_%v(R): %d rows, the scan keeps %d", p, len(g), len(w))
					}
				}
			}
		}
	}
}

// TestSameAttributeDisjunction: a disjunction of atoms over one attribute
// folds into value ranges that keep exactly the rows some atom keeps, at
// the int32 extremes too.
func TestSameAttributeDisjunction(t *testing.T) {
	thetas := []relation.Op{relation.EQ, relation.NE, relation.LT, relation.LE, relation.GT, relation.GE}
	consts := []int32{-1 << 31, -1<<31 + 1, Placeholder, 0, 1, 2, 4, 1<<31 - 2, 1<<31 - 1}
	col := append([]int32(nil), consts...)
	for v := int32(-3); v < 6; v++ {
		col = append(col, v)
	}
	r := &Relation{Name: "T", Attrs: []string{"A", "B"}, Cols: [][]int32{col, make([]int32, len(col))}}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		atoms := make(Or, 1+rng.Intn(3))
		for i := range atoms {
			atoms[i] = AttrConst{Attr: "A", Theta: thetas[rng.Intn(len(thetas))], C: consts[rng.Intn(len(consts))]}
		}
		p := Pred(atoms)
		if len(atoms) > 1 && rng.Intn(4) == 0 {
			p = Or{atoms[:1], atoms[1:]} // a nest folds too
		}
		cp, err := p.Compile(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := cp.(compiledRanges); !ok {
			t.Fatalf("%v compiled to %T, want value ranges", p, cp)
		}
		var want []int32
		for i, v := range col {
			if slices.ContainsFunc(atoms, func(a Pred) bool { return applyOp(a.(AttrConst).Theta, v, a.(AttrConst).C) }) {
				want = append(want, int32(i))
			}
			if got := cp.Eval(func(uint16) int32 { return v }); got != slices.Contains(want, int32(i)) {
				t.Fatalf("%v on %d: Eval %v", p, v, got)
			}
		}
		sel := make([]int32, len(col))
		for i := range sel {
			sel[i] = int32(i)
		}
		if got := cp.Filter(r.Cols, sel); !slices.Equal(got, want) {
			t.Fatalf("%v keeps rows %v, want %v", p, got, want)
		}
	}
	cp, _ := (Or{Eq("A", 1), Eq("B", 2)}).Compile(r)
	if _, ok := cp.(compiledList); !ok {
		t.Fatalf("a disjunction over two attributes compiled to %T", cp)
	}
}

// TestDrivenSelectionTicksCandidates: a driven selection ticks its guard
// for the candidate rows it touches, not for every row of its input, once
// the postings it reads are built; the selection that builds them ticks
// for every row each build pass reads.
func TestDrivenSelectionTicksCandidates(t *testing.T) {
	s := postingStore(t, 4, postingMinRows+1000)
	sn := s.Snapshot()
	ticks := func(sn *Snapshot) uint64 {
		g := NewGuard(nil)
		a := NewArena(sn)
		a.SetGuard(g)
		if err := a.Select("x", "R", And{Eq("D", 7), Ne("A", 0)}); err != nil {
			t.Fatal(err)
		}
		return g.n
	}
	r := sn.Rel("R")
	first, scan := ticks(sn), ticks(withoutPostings(sn))
	driven := ticks(sn)
	cand := len(r.posting(3, nil).between(7, 7).rows)
	if scan < uint64(r.NumRows()) || driven >= scan/10 || driven < uint64(cand) {
		t.Fatalf("driven selection ticked %d, the scan %d, for %d candidates of %d rows", driven, scan, cand, r.NumRows())
	}
	// D's posting at least (building the store's selections built A's),
	// three passes.
	if first < driven+3*uint64(r.NumRows()) {
		t.Fatalf("the selection building D's posting ticked %d, a later one %d, over %d rows", first, driven, r.NumRows())
	}
}

// TestPostingBuildStopsOnGuard: a canceled query stops building a
// posting's counts, or its rows, at its first batch, its selection fails,
// and the part it stopped stays unbuilt for the next reader, which builds
// it.
func TestPostingBuildStopsOnGuard(t *testing.T) {
	s := postingStore(t, 6, postingMinRows+1000)
	sn := s.Snapshot()
	r := sn.Rel("R")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := NewGuard(ctx)
	if p := r.posting(2, g); p != nil {
		t.Fatal("a canceled build returned a posting")
	}
	if n := g.n; n > guardPeriod {
		t.Fatalf("a canceled build ticked %d after its first batch", n)
	}
	if r.posts[2].counted.Load() || r.posts[2].placed.Load() {
		t.Fatal("a canceled build left its slot built")
	}
	a := NewArena(sn)
	a.SetGuard(NewGuard(ctx))
	if err := a.Select("x", "R", Eq("C", 1)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled selection: %v, want ErrCanceled", err)
	}
	if r.posts[2].counted.Load() || r.posts[2].placed.Load() {
		t.Fatal("a canceled selection left C's slot built")
	}
	if !checkSelection(t, sn, "R", Eq("C", 1)) || r.posting(2, nil) == nil {
		t.Fatal("the next selection did not build C's posting")
	}
	// Counts built, rows not: a canceled query stops the rows' pass and
	// leaves the counts as they were.
	c := r.counts(3, nil)
	if c == nil || r.posts[3].placed.Load() {
		t.Fatal("D's counts were not built alone")
	}
	g = NewGuard(ctx)
	if p := r.posting(3, g); p != nil || g.n > guardPeriod {
		t.Fatalf("a canceled rows build returned %v after %d ticks", p, g.n)
	}
	if r.posts[3].placed.Load() || r.counts(3, nil) != c {
		t.Fatal("a canceled rows build left its rows built or its counts replaced")
	}
	if p := r.posting(3, nil); p == nil || p.valueCounts != c {
		t.Fatal("the next reader did not build D's rows over its counts")
	}
}

// TestPostingsLayout: a posting lists every row under its value, a column
// too short or too wide gets none, and arena results never do.
func TestPostingsLayout(t *testing.T) {
	s := postingStore(t, 1, postingMinRows)
	sn := s.Snapshot()
	r := sn.Rel("R")
	for ai, name := range r.Attrs {
		p := r.posting(uint16(ai), nil)
		if name == "W" {
			if p != nil {
				t.Fatal("a column spanning 50000 values got a posting")
			}
			continue
		}
		if p == nil {
			t.Fatalf("column %s got no posting", name)
		}
		col := r.Cols[ai]
		for v := range len(p.off) - 1 {
			rows := p.rows[p.off[v]:p.off[v+1]]
			if !slices.IsSorted(rows) {
				t.Fatalf("column %s value %d: rows not ascending", name, int(p.lo)+v)
			}
			for _, row := range rows {
				if col[row] != p.lo+int32(v) {
					t.Fatalf("column %s: row %d holds %d, listed under %d", name, row, col[row], int(p.lo)+v)
				}
			}
		}
		if int(p.off[len(p.off)-1]) != len(col) {
			t.Fatalf("column %s: %d rows listed of %d", name, p.off[len(p.off)-1], len(col))
		}
	}
	small := NewStore()
	if _, err := small.AddRelation("S", []string{"A"}, [][]int32{make([]int32, postingMinRows-1)}); err != nil {
		t.Fatal(err)
	}
	if small.Snapshot().Rel("S").posting(0, nil) != nil {
		t.Fatal("a column under postingMinRows rows got a posting")
	}
	a := NewArena(sn)
	if err := a.Project("P", "R", "A"); err != nil {
		t.Fatal(err)
	}
	if p := a.Rel("P"); p.posts != nil || p.posting(0, nil) != nil {
		t.Fatal("an arena result has posting slots")
	}
}

// TestPostingsAcrossWrites interleaves SET UNCERTAIN and CHASE on an
// indexed column with selections over held snapshots: every snapshot keeps
// agreeing with its own scan and with what it answered when taken, copies
// share the postings of the columns they share, and a written column gets a
// fresh one.
func TestPostingsAcrossWrites(t *testing.T) {
	s := postingStore(t, 7, postingMinRows+500)
	rng := rand.New(rand.NewSource(7))
	preds := []Pred{Eq("B", 1), Gt("B", 4), Eq("C", 1), And{Eq("B", 3), Ne("C", 1)}, Or{Eq("B", 0), Eq("A", 2)}, AttrConst{"B", relation.LE, -1}}
	type held struct {
		sn   *Snapshot
		sels [][]int32
	}
	var snaps []held
	chasedC := 0
	answer := func(sn *Snapshot) [][]int32 {
		out := make([][]int32, len(preds))
		for i, p := range preds {
			checkSelection(t, sn, "R", p)
			a := NewArena(sn)
			if err := a.Select("x", "R", p); err != nil {
				t.Fatal(err)
			}
			out[i] = a.Selection("x").Sel()
		}
		return out
	}
	for step := 0; step < 12; step++ {
		sn := s.Snapshot()
		snaps = append(snaps, held{sn, answer(sn)})
		before := sn.Rel("R")
		if step%3 == 2 {
			// Worlds where B = 9 (outside B's domain: only the or-sets
			// below add it) must have C < 0: the chase drops them and
			// turns the C cells of those rows into placeholders.
			err := s.ChaseEGDs("R", []EGD{{Premise: []Atom{{Attr: "B", Theta: relation.EQ, C: 9}}, Conclusion: Atom{Attr: "C", Theta: relation.LT, C: 0}}})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			row := rng.Intn(before.NumRows())
			for before.Cols[1][row] == Placeholder {
				row = rng.Intn(before.NumRows())
			}
			if err := s.SetUncertain("R", row, "B", []int32{before.Cols[1][row], 9}, nil); err != nil {
				t.Fatal(err)
			}
		}
		after := s.Rel("R")
		if after == before {
			continue // the chase found nothing to do
		}
		for ai := range after.Cols {
			shared := &after.Cols[ai][0] == &before.Cols[ai][0]
			if shared != (after.posts[ai] == before.posts[ai]) {
				t.Fatalf("step %d column %s: shares its column %v but its posting slot %v", step, after.Attrs[ai], shared, !shared)
			}
			if !shared && step%3 == 2 && after.Attrs[ai] == "C" {
				chasedC++
			}
		}
	}
	if chasedC == 0 {
		t.Fatal("no chase replaced column C")
	}
	for i, h := range snaps {
		if got := answer(h.sn); !slices.EqualFunc(got, h.sels, slices.Equal) {
			t.Fatalf("snapshot %d answers differently after the writes", i)
		}
	}
}

// TestPostingsAcrossWritesLiveStore: a mode query over the live store
// builds no value counts, since the store may still write the column in
// place; selections over a later snapshot, driven from counts and rows
// built then, give the scan's answer.
func TestPostingsAcrossWritesLiveStore(t *testing.T) {
	const rows = postingMinRows + 1000
	cols := [][]int32{make([]int32, rows), make([]int32, rows)}
	for i := range rows {
		cols[0][i], cols[1][i] = int32(i%3), int32(i%5)
	}
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, cols); err != nil {
		t.Fatal(err)
	}
	if _, err := PossibleP(s, "R"); err != nil {
		t.Fatal(err)
	}
	if r := s.Rel("R"); r.posts[0].counted.Load() || r.posts[1].counted.Load() {
		t.Fatal("a mode query over the live store built value counts")
	}
	for i := 0; i < 40; i++ {
		if err := s.SetUncertain("R", i*7, "A", []int32{0, 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !checkSelection(t, s.Snapshot(), "R", Eq("A", 1)) {
		t.Fatal("the selection on A was not driven")
	}
}

// TestPostingBuiltOnce: eight goroutines making the first selection on one
// column of one snapshot get the scan's answer, and its counts and its rows
// are each built once: the goroutines' guards tick, beyond what a selection
// over the built posting ticks, exactly the two counting passes and the
// placing pass over the column. A selection that then scans builds its
// column's counts and no rows.
func TestPostingBuiltOnce(t *testing.T) {
	s := postingStore(t, 3, postingMinRows+200)
	sn := s.Snapshot()
	want := NewArena(withoutPostings(sn))
	if err := want.Select("x", "R", Eq("C", 1)); err != nil {
		t.Fatal(err)
	}
	selectC := func(g *Guard) ([]int32, error) {
		a := NewArena(sn)
		a.SetGuard(g)
		if err := a.Select("x", "R", Eq("C", 1)); err != nil {
			return nil, err
		}
		return a.Selection("x").Sel(), nil
	}
	var wg sync.WaitGroup
	got := make([][]int32, 8)
	errs := make([]error, 8)
	guards := make([]*Guard, 8)
	for g := range got {
		wg.Add(1)
		guards[g] = NewGuard(context.Background())
		go func() {
			defer wg.Done()
			got[g], errs[g] = selectC(guards[g])
		}()
	}
	wg.Wait()
	var ticked uint64
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !slices.Equal(got[g], want.Selection("x").Sel()) {
			t.Fatalf("goroutine %d: %d rows, the scan keeps %d", g, len(got[g]), want.Selection("x").Len())
		}
		ticked += guards[g].n
	}
	r := sn.Rel("R")
	if p := r.posting(2, nil); p == nil || r.posts[2].post != p || p.valueCounts != r.posts[2].counts {
		t.Fatal("no single posting for C after the concurrent first selections")
	}
	after := NewGuard(context.Background())
	if _, err := selectC(after); err != nil {
		t.Fatal(err)
	}
	if builds := 3 * uint64(r.NumRows()); ticked != 8*after.n+builds {
		t.Fatalf("the first selections ticked %d, eight over the built posting %d, plus the builds' %d", ticked, 8*after.n, builds)
	}

	// B ≥ 0 keeps every row but the placeholders: the selection scans, and
	// B gets its counts, not its rows.
	if r.posts[1].counted.Load() {
		t.Fatal("B's counts were built before any selection read B")
	}
	if checkSelection(t, sn, "R", AttrConst{"B", relation.GE, 0}) {
		t.Fatal("a selection keeping nearly every row was driven")
	}
	if !r.posts[1].counted.Load() || r.posts[1].placed.Load() {
		t.Fatalf("a scanning selection left B counted %v, placed %v; want counted, not placed", r.posts[1].counted.Load(), r.posts[1].placed.Load())
	}
}
