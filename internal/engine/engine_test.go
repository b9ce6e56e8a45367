package engine_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"maybms/internal/bridge"
	. "maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/worlds"
)

// randStore builds a small random store over R[A,B,C] with random or-set
// noise, suitable for exhaustive world enumeration.
func randStore(rng *rand.Rand) *Store {
	s := NewStore()
	n := 2 + rng.Intn(3)
	cols := make([][]int32, 3)
	for i := range cols {
		cols[i] = make([]int32, n)
		for j := range cols[i] {
			cols[i][j] = int32(rng.Intn(3))
		}
	}
	if _, err := s.AddRelation("R", []string{"A", "B", "C"}, cols); err != nil {
		panic(err)
	}
	for row := 0; row < n; row++ {
		for _, attr := range []string{"A", "B", "C"} {
			if rng.Float64() < 0.3 {
				k := 2 + rng.Intn(2)
				vals := make([]int32, 0, k)
				seen := map[int32]bool{}
				for len(vals) < k {
					v := int32(rng.Intn(4))
					if !seen[v] {
						seen[v] = true
						vals = append(vals, v)
					}
				}
				var probs []float64
				if rng.Intn(2) == 0 {
					probs = make([]float64, k)
					total := 0.0
					for i := range probs {
						probs[i] = rng.Float64() + 0.01
						total += probs[i]
					}
					for i := range probs {
						probs[i] /= total
					}
				}
				if err := s.SetUncertain("R", row, attr, vals, probs); err != nil {
					panic(err)
				}
			}
		}
	}
	return s
}

// toRelPred converts an engine predicate to the substrate predicate
// language for oracle evaluation.
func toRelPred(p Pred) relation.Predicate {
	switch p := p.(type) {
	case AttrConst:
		return relation.AttrConst{Attr: p.Attr, Theta: p.Theta, Const: relation.Int(int64(p.C))}
	case AttrAttr:
		return relation.AttrAttr{A: p.A, Theta: p.Theta, B: p.B}
	case And:
		out := make(relation.And, len(p))
		for i, q := range p {
			out[i] = toRelPred(q)
		}
		return out
	case Or:
		out := make(relation.Or, len(p))
		for i, q := range p {
			out[i] = toRelPred(q)
		}
		return out
	}
	panic("unknown pred")
}

func randPred(rng *rand.Rand, attrs []string, depth int) Pred {
	atom := func() Pred {
		theta := relation.Op(rng.Intn(6))
		if rng.Intn(4) == 0 {
			a, b := attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))]
			if a != b {
				return AttrAttr{A: a, Theta: theta, B: b}
			}
		}
		return AttrConst{Attr: attrs[rng.Intn(len(attrs))], Theta: theta, C: int32(rng.Intn(4))}
	}
	if depth == 0 {
		return atom()
	}
	switch rng.Intn(3) {
	case 0:
		return And{randPred(rng, attrs, depth-1), randPred(rng, attrs, depth-1)}
	case 1:
		return Or{randPred(rng, attrs, depth-1), randPred(rng, attrs, depth-1)}
	default:
		return atom()
	}
}

// oracleCompare checks that relation res of the store represents the same
// probabilistic world-set as evaluating q over the input world-set.
func oracleCompare(t *testing.T, trial int, in *worlds.WorldSet, s *Store, res string, q worlds.Query) {
	t.Helper()
	want, err := worlds.EvalWorldSet(q, in, res)
	if err != nil {
		t.Fatalf("trial %d: oracle: %v", trial, err)
	}
	got, err := bridge.RepRelation(s, res, 1<<22)
	if err != nil {
		t.Fatalf("trial %d: rep: %v", trial, err)
	}
	if !got.Equal(want, 1e-9) {
		t.Fatalf("trial %d: mismatch for %v: got %d distinct worlds, want %d",
			trial, q, len(got.Canonical()), len(want.Canonical()))
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	r, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 2 {
		t.Fatalf("rows = %d", r.NumRows())
	}
	if err := s.SetUncertain("R", 0, "A", []int32{1, 5}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	st := s.Stats("R")
	if st.NumComp != 1 || st.NumCompGT1 != 0 || st.CSize != 2 || st.RSize != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if s.TotalPlaceholders("R") != 1 {
		t.Fatal("placeholder count wrong")
	}
	// Errors.
	if _, err := s.AddRelation("R", []string{"X"}, [][]int32{{1}}); err == nil {
		t.Fatal("duplicate relation must fail")
	}
	if err := s.SetUncertain("R", 0, "A", []int32{1}, nil); err == nil {
		t.Fatal("double SetUncertain must fail")
	}
	if err := s.SetUncertain("R", 9, "B", []int32{1}, nil); err == nil {
		t.Fatal("row out of range must fail")
	}
	if err := s.SetUncertain("R", 1, "B", nil, nil); err == nil {
		t.Fatal("empty or-set must fail")
	}
	if err := s.SetUncertain("R", 1, "B", []int32{4, -7}, nil); err == nil {
		t.Fatal("negative or-set value must fail")
	}
	// A refused SetUncertain leaves nothing behind: no component mapped to a
	// still-certain field.
	if err := s.Validate(1e-9); err != nil {
		t.Fatalf("store invalid after refused SetUncertain calls: %v", err)
	}
	if got := s.NumComponents(); got != 1 {
		t.Fatalf("%d components after refused SetUncertain calls, want 1", got)
	}
}

func TestSelectCertainOnly(t *testing.T) {
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 2, 3}, {10, 20, 30}}); err != nil {
		t.Fatal(err)
	}
	Commit(t, s, func(a *Arena) error { err := a.Select("P", "R", Gt("A", 1)); return err })
	out := s.Rel("P")
	if out.NumRows() != 2 || out.Cols[1][0] != 20 {
		t.Fatalf("select result wrong: %v", out.Cols)
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestSelectAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		s := randStore(rng)
		w, err := bridge.ToWSD(s)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.Rep(0)
		if err != nil {
			t.Fatal(err)
		}
		p := randPred(rng, []string{"A", "B", "C"}, 1+rng.Intn(2))
		Commit(t, s, func(a *Arena) error { err := a.Select("P", "R", p); return err })
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		oracleCompare(t, trial, in, s, "P",
			worlds.Select{Q: worlds.Base{Rel: "R"}, Pred: toRelPred(p)})
	}
}

func TestSelectChainAgainstOracle(t *testing.T) {
	// Chained selections exercise absence propagation through results.
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 40; trial++ {
		s := randStore(rng)
		w, err := bridge.ToWSD(s)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.Rep(0)
		if err != nil {
			t.Fatal(err)
		}
		p1 := randPred(rng, []string{"A", "B", "C"}, 1)
		p2 := randPred(rng, []string{"A", "B", "C"}, 1)
		Commit(t, s, func(a *Arena) error { err := a.Select("P1", "R", p1); return err })
		Commit(t, s, func(a *Arena) error { err := a.Select("P2", "P1", p2); return err })
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		q := worlds.Select{Q: worlds.Select{Q: worlds.Base{Rel: "R"}, Pred: toRelPred(p1)}, Pred: toRelPred(p2)}
		oracleCompare(t, trial, in, s, "P2", q)
	}
}

func TestProjectAgainstOracle(t *testing.T) {
	// σ then π dropping the selection attribute: the engine analog of the
	// Figure 15 resurrection pitfall. The fused SelectProject on a copy of
	// the store must match the two steps: same Stats, and — the stores carry
	// non-uniform probabilities, so a different composition or local-world
	// order would show — bit-identical pre-fold masses. So must π over a σ
	// left in an arena temporary, built when the temporary is dropped, and
	// the fused result read in place before it is built (CheckView).
	check := func(trial int, s *Store, p Pred, keep []string) {
		t.Helper()
		fused, temp := s.Clone(), s.Clone()
		w, err := bridge.ToWSD(s)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.Rep(0)
		if err != nil {
			t.Fatal(err)
		}
		Commit(t, s, func(a *Arena) error { err := a.Select("P1", "R", p); return err })
		Commit(t, s, func(a *Arena) error { err := a.Project("P2", "P1", keep...); return err })
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		Commit(t, fused, func(a *Arena) error {
			if err := a.SelectProject("P2", "R", p, keep...); err != nil {
				return err
			}
			CheckView(t, trial, a, "P2")
			return nil
		})
		Commit(t, temp, func(a *Arena) error {
			if err := a.Select("T", "R", p); err != nil {
				return err
			}
			if err := a.Project("P2", "T", keep...); err != nil {
				return err
			}
			return a.DropRelation("T")
		})
		want, err := PossibleMasses(s, "P2")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			s    *Store
		}{{"fused", fused}, {"over a temporary", temp}} {
			if err := c.s.Validate(1e-9); err != nil {
				t.Fatalf("trial %d: %s: %v", trial, c.name, err)
			}
			if got, want := c.s.Stats("P2"), s.Stats("P2"); got != want {
				t.Fatalf("trial %d: %s stats %+v, two-step %+v", trial, c.name, got, want)
			}
			got, err := PossibleMasses(c.s, "P2")
			if err != nil {
				t.Fatal(err)
			}
			// %v prints the shortest decimal that round-trips: bit-exact.
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: %s masses %v, two-step %v", trial, c.name, got, want)
			}
		}
		q := worlds.Project{
			Q:     worlds.Select{Q: worlds.Base{Rel: "R"}, Pred: toRelPred(p)},
			Attrs: keep,
		}
		oracleCompare(t, trial, in, s, "P2", q)
	}

	// Fixed shapes for the walk of the uncertain rows against the selection
	// vector. R has placeholders at its first and last rows:
	//
	//	row  A      B  C
	//	0    {0,1}  0  0
	//	1    1      1  0
	//	2    2      0  1
	//	3    1      2  2
	//	4    3      3  {0,2}
	edges := []struct {
		p    Pred
		keep []string
	}{
		{AttrConst{Attr: "B", Theta: relation.LT, C: 3}, []string{"C"}}, // row 0 kept, row 4 after the last kept row
		{AttrConst{Attr: "B", Theta: relation.LT, C: 3}, []string{"A", "B"}},
		{Eq("B", 3), []string{"A"}},                 // only the last row, uncertain
		{Eq("B", 9), []string{"A", "C"}},            // empty selection
		{Eq("A", 2), []string{"B", "C"}},            // rejects every uncertain row
		{Or{Eq("A", 0), Eq("C", 2)}, []string{"B"}}, // both kept in some local worlds
	}
	for i, e := range edges {
		s := NewStore()
		cols := [][]int32{{0, 1, 2, 1, 3}, {0, 1, 0, 2, 3}, {0, 0, 1, 2, 0}}
		if _, err := s.AddRelation("R", []string{"A", "B", "C"}, cols); err != nil {
			t.Fatal(err)
		}
		if err := s.SetUncertain("R", 0, "A", []int32{0, 1}, []float64{0.3, 0.7}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetUncertain("R", 4, "C", []int32{0, 2}, []float64{0.6, 0.4}); err != nil {
			t.Fatal(err)
		}
		check(-1-i, s, e.p, e.keep)
	}

	rng := rand.New(rand.NewSource(107))
	attrsAll := []string{"A", "B", "C"}
	for trial := 0; trial < 60; trial++ {
		s := randStore(rng)
		p := randPred(rng, attrsAll, 1)
		// Random non-empty projection.
		perm := rng.Perm(3)
		k := 1 + rng.Intn(3)
		var keep []string
		for _, i := range perm[:k] {
			keep = append(keep, attrsAll[i])
		}
		check(trial, s, p, keep)
	}
}

func TestRenameAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 20; trial++ {
		s := randStore(rng)
		w, err := bridge.ToWSD(s)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.Rep(0)
		if err != nil {
			t.Fatal(err)
		}
		// δ over a σ left in an arena temporary: built before the drop.
		sel := s.Clone()
		Commit(t, s, func(a *Arena) error { err := a.Rename("P", "R", map[string]string{"A": "X"}); return err })
		oracleCompare(t, trial, in, s, "P",
			worlds.Rename{Q: worlds.Base{Rel: "R"}, Old: "A", New: "X"})
		Commit(t, sel, func(a *Arena) error {
			if err := a.Select("T", "R", Gt("B", 0)); err != nil {
				return err
			}
			if err := a.Rename("P", "T", map[string]string{"A": "X"}); err != nil {
				return err
			}
			return a.DropRelation("T")
		})
		oracleCompare(t, trial, in, sel, "P", worlds.Rename{
			Q:   worlds.Select{Q: worlds.Base{Rel: "R"}, Pred: toRelPred(Gt("B", 0))},
			Old: "A", New: "X",
		})
	}
}

func TestJoinAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 60; trial++ {
		s := NewStore()
		mk := func(name string, attrs []string) {
			n := 1 + rng.Intn(3)
			cols := make([][]int32, len(attrs))
			for i := range cols {
				cols[i] = make([]int32, n)
				for j := range cols[i] {
					cols[i][j] = int32(rng.Intn(3))
				}
			}
			if _, err := s.AddRelation(name, attrs, cols); err != nil {
				t.Fatal(err)
			}
			for row := 0; row < n; row++ {
				for _, a := range attrs {
					if rng.Float64() < 0.3 {
						if err := s.SetUncertain(name, row, a, []int32{int32(rng.Intn(3)), 3}, nil); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		mk("L", []string{"A", "B"})
		mk("S", []string{"C", "D"})
		w, err := bridge.ToWSD(s)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.Rep(0)
		if err != nil {
			t.Fatal(err)
		}
		// π over a join left in an arena temporary, the shape of a plain
		// Q5: built before the drop.
		proj := s.Clone()
		Commit(t, s, func(a *Arena) error { _, err := a.Join("J", "L", "S", "B", "C"); return err })
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		q := worlds.Select{
			Q:    worlds.Product{L: worlds.Base{Rel: "L"}, R: worlds.Base{Rel: "S"}},
			Pred: relation.AttrAttr{A: "B", Theta: relation.EQ, B: "C"},
		}
		oracleCompare(t, trial, in, s, "J", q)
		Commit(t, proj, func(a *Arena) error {
			if _, err := a.Join("J", "L", "S", "B", "C"); err != nil {
				return err
			}
			if err := a.Project("P", "J", "A", "D"); err != nil {
				return err
			}
			return a.DropRelation("J")
		})
		if err := proj.Validate(1e-9); err != nil {
			t.Fatalf("trial %d: π over a join: %v", trial, err)
		}
		oracleCompare(t, trial, in, proj, "P", worlds.Project{Q: q, Attrs: []string{"A", "D"}})
	}
}

func TestChaseEGDsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for trial := 0; trial < 80; trial++ {
		s := randStore(rng)
		w, err := bridge.ToWSD(s)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.Rep(0)
		if err != nil {
			t.Fatal(err)
		}
		attrs := []string{"A", "B", "C"}
		var deps []EGD
		for i := 0; i < 1+rng.Intn(2); i++ {
			deps = append(deps, EGD{
				Premise:    []Atom{{Attr: attrs[rng.Intn(3)], Theta: relation.EQ, C: int32(rng.Intn(3))}},
				Conclusion: Atom{Attr: attrs[rng.Intn(3)], Theta: relation.Op(rng.Intn(6)), C: int32(rng.Intn(3))},
			})
		}
		// Oracle: filter worlds, renormalize.
		want := worlds.NewWorldSet(in.Schema)
		var total float64
		for i, db := range in.Worlds {
			ok := true
			for _, d := range deps {
				r := db.Rel("R")
				sch := r.Schema()
				for _, tup := range r.Tuples() {
					holds, herr := d.HoldsRow(func(attr string) (int32, error) {
						return int32(tup[sch.MustPos(attr)].AsInt()), nil
					})
					if herr != nil {
						t.Fatal(herr)
					}
					if !holds {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
			}
			if ok {
				want.Add(db, in.Probs[i])
				total += in.Probs[i]
			}
		}
		for i := range want.Probs {
			want.Probs[i] /= total
		}
		err = s.ChaseEGDs("R", deps)
		if errors.Is(err, ErrInconsistent) {
			if want.Size() != 0 {
				t.Fatalf("trial %d: chase inconsistent but oracle has %d worlds (deps %v)", trial, want.Size(), deps)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want.Size() == 0 {
			t.Fatalf("trial %d: oracle empty but chase succeeded", trial)
		}
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := bridge.RepRelation(s, "R", 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		// Restrict oracle worlds to relation R for comparison.
		wantR := worlds.NewWorldSet(worlds.NewSchema(worlds.RelSchema{Name: "R", Attrs: attrs}))
		for i, db := range want.Worlds {
			nd := worlds.NewDatabase(wantR.Schema)
			for _, tup := range db.Rel("R").Tuples() {
				nd.Rels["R"].Insert(tup.Clone())
			}
			wantR.Add(nd, want.Probs[i])
		}
		if !got.Equal(wantR, 1e-9) {
			t.Fatalf("trial %d: chase mismatch (deps %v)", trial, deps)
		}
	}
}

func TestChaseCertainViolation(t *testing.T) {
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1}, {5}}); err != nil {
		t.Fatal(err)
	}
	d := EGD{
		Premise:    []Atom{{Attr: "A", Theta: relation.EQ, C: 1}},
		Conclusion: Atom{Attr: "B", Theta: relation.NE, C: 5},
	}
	if err := s.ChaseEGDs("R", []EGD{d}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

func TestDropRelationCleansComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	s := randStore(rng)
	Commit(t, s, func(a *Arena) error { err := a.Select("P", "R", Gt("A", 0)); return err })
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	s.DropRelation("P")
	if err := s.Validate(1e-9); err != nil {
		t.Fatalf("after drop: %v", err)
	}
	if s.Rel("P") != nil {
		t.Fatal("relation not dropped")
	}
	s.EachComp(func(c *Component) {
		for _, f := range c.Fields {
			if s.RelByID(f.Rel) == nil {
				t.Fatal("component still references dropped relation")
			}
		}
	})
}

// TestDropRelationOrder: a component holding two fields of a dropped relation
// loses them by swap-removal, so the survivors' order depends on the order
// the fields leave in. It must be the same on every run — it reaches
// snapshot bytes and shard fingerprints — for the store's DropRelation and
// the arena's alike.
func TestDropRelationOrder(t *testing.T) {
	ph := Placeholder
	layouts := map[string]int{}
	for run := 0; run < 200; run++ {
		row := func(v int32, p float64) CompRow { return CompRow{Vals: []int32{v, v, v, v}, P: p} }
		s, err := ImportState(&StoreState{
			Rels: []*RelState{
				{Name: "T", Attrs: []string{"A"}, Cols: [][]int32{{ph, ph}}},
				{Name: "R", Attrs: []string{"A"}, Cols: [][]int32{{ph, ph}}},
			},
			Comps: []*CompState{{
				ID:     1,
				Fields: []FieldID{{Rel: 0, Row: 0}, {Rel: 0, Row: 1}, {Rel: 1, Row: 0}, {Rel: 1, Row: 1}},
				Rows:   []CompRow{row(1, 0.5), row(2, 0.5)},
			}},
			NextCID: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The arena extends the component with two results' field copies
		// and drops the first: q2's survivors are committed in some order.
		Commit(t, s, func(a *Arena) error {
			if err := a.Select("q1", "R", Gt("A", 0)); err != nil {
				return err
			}
			if err := a.Select("q2", "R", Gt("A", 0)); err != nil {
				return err
			}
			a.DropRelation("q1")
			return nil
		})
		s.DropRelation("T")
		if err := s.Validate(1e-9); err != nil {
			t.Fatal(err)
		}
		st := s.ExportState()
		if len(st.Comps) != 1 {
			t.Fatalf("%d components, want 1", len(st.Comps))
		}
		layouts[fmt.Sprint(st.Comps[0].Fields)]++
	}
	if len(layouts) != 1 {
		t.Fatalf("one state, dropped the same way, exported %d field layouts: %v", len(layouts), layouts)
	}
}

func TestStatsAfterNoise(t *testing.T) {
	s := NewStore()
	cols := [][]int32{{0, 1, 2, 3}, {4, 5, 6, 7}}
	if _, err := s.AddRelation("R", []string{"A", "B"}, cols); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 0, "A", []int32{0, 9}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 2, "B", []int32{6, 9, 10}, nil); err != nil {
		t.Fatal(err)
	}
	st := s.Stats("R")
	if st.NumComp != 2 || st.NumCompGT1 != 0 || st.CSize != 5 || st.RSize != 4 {
		t.Fatalf("stats = %+v", st)
	}
	h := s.ComponentSizeHistogram("R")
	if h[1] != 2 || len(h) != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestChaseRefinedSameSemantics(t *testing.T) {
	// Refined and non-refined chase must represent the same world-set; the
	// refined one composes fewer (and smaller) components.
	rng := rand.New(rand.NewSource(137))
	for trial := 0; trial < 40; trial++ {
		mk := func() *Store { return randStore(rand.New(rand.NewSource(int64(trial)))) }
		deps := []EGD{{
			Premise:    []Atom{{Attr: "A", Theta: relation.EQ, C: int32(rng.Intn(3))}},
			Conclusion: Atom{Attr: "B", Theta: relation.NE, C: int32(rng.Intn(3))},
		}}
		s1, s2 := mk(), mk()
		err1 := s1.ChaseEGDs("R", deps)
		err2 := s2.ChaseEGDsRefined("R", deps)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: inconsistency verdicts differ: %v vs %v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		r1, err := bridge.RepRelation(s1, "R", 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := bridge.RepRelation(s2, "R", 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		if !r1.Equal(r2, 1e-9) {
			t.Fatalf("trial %d: refined chase changed the world-set", trial)
		}
		if s2.TotalPlaceholders("R") > s1.TotalPlaceholders("R") {
			t.Fatalf("trial %d: refined chase materialized more placeholders", trial)
		}
	}
}

func TestChaseAssumeCleanSameResultOnCleanData(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		mk := func() *Store { return randStore(rand.New(rand.NewSource(int64(1000 + trial)))) }
		deps := []EGD{{
			Premise:    []Atom{{Attr: "A", Theta: relation.EQ, C: 1}},
			Conclusion: Atom{Attr: "B", Theta: relation.NE, C: 2},
		}}
		s1, s2 := mk(), mk()
		err1 := s1.ChaseEGDs("R", deps)
		if errors.Is(err1, ErrInconsistent) {
			continue // certain violation: AssumeClean intentionally differs
		}
		if err1 != nil {
			t.Fatal(err1)
		}
		if err := s2.ChaseEGDsOpt("R", deps, ChaseOptions{AssumeClean: true}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r1, err := bridge.RepRelation(s1, "R", 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := bridge.RepRelation(s2, "R", 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		if !r1.Equal(r2, 1e-9) {
			t.Fatalf("trial %d: AssumeClean changed the world-set on clean data", trial)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	s := randStore(rng)
	before, err := bridge.RepRelation(s, "R", 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if err := c.Validate(1e-9); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	// Mutate the clone heavily; the original must be unaffected.
	Commit(t, c, func(a *Arena) error { err := a.Select("P", "R", Gt("A", 0)); return err })
	if err := c.ChaseEGDs("R", []EGD{{
		Premise:    []Atom{{Attr: "A", Theta: relation.EQ, C: 0}},
		Conclusion: Atom{Attr: "B", Theta: relation.NE, C: 0},
	}}); err != nil && !errors.Is(err, ErrInconsistent) {
		t.Fatal(err)
	}
	after, err := bridge.RepRelation(s, "R", 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(before, 1e-12) {
		t.Fatal("mutating the clone changed the original")
	}
}
