package sql

import (
	"fmt"
	"math"
	"testing"

	"maybms/internal/bridge"
	"maybms/internal/census"
	"maybms/internal/engine"
)

// prepareCensus builds a noisy census store (what bench.Prepare does; the
// bench package now sits above this one in the import graph, measuring the
// session API).
func prepareCensus(t *testing.T, rows int, density float64, seed int64) (*engine.Store, int) {
	t.Helper()
	s, err := census.NewStore("R", rows, seed)
	if err != nil {
		t.Fatal(err)
	}
	n, err := census.AddNoise(s, "R", density, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return s, n
}

// CensusSQL is the SQL form of each Figure 29 query, shared with the bench
// and experiment drivers through internal/census.
var CensusSQL = census.SQL

// runCensusSQL executes the SQL form of a Figure 29 query, materializing
// res. Q5 computes its q2 and q3 inputs through the SQL frontend first and
// drops them afterwards, like census.Run does.
func runCensusSQL(t *testing.T, s *engine.Store, name, res string) *Result {
	t.Helper()
	if name == "Q5" {
		for _, in := range []string{"Q2", "Q3"} {
			tgt := map[string]string{"Q2": "q2", "Q3": "q3"}[in]
			if _, err := execSQL(s, CensusSQL[in], tgt); err != nil {
				t.Fatalf("%s (input of Q5): %v", in, err)
			}
		}
		defer s.DropRelation("q3")
		defer s.DropRelation("q2")
	}
	r, err := execSQL(s, CensusSQL[name], res)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

// runHandBuilt evaluates the hand-built census.Run plan of a Figure 29 query
// on an arena over s and commits it, landing res in the store.
func runHandBuilt(t *testing.T, s *engine.Store, name, res string) {
	t.Helper()
	ar := engine.NewArena(s.Snapshot())
	if err := census.Run(ar, name, "R", res); err != nil {
		t.Fatalf("%s: hand-built: %v", name, err)
	}
	if err := ar.Commit(); err != nil {
		t.Fatalf("%s: hand-built: %v", name, err)
	}
}

// carrierShapes are selections whose projection drops every field the
// condition reads — when those are uncertain, a fused Select→Project must
// carry the row's presence on a kept field — each with its hand-built
// Select-then-Project plan over R.
var carrierShapes = []struct {
	sql  string
	hand func(a *engine.Arena, res string) error
}{
	{"SELECT POWSTATE FROM R WHERE CITIZEN = 0", func(a *engine.Arena, res string) error {
		return selectThenProject(a, res, engine.Eq("CITIZEN", 0), "POWSTATE")
	}},
	{"SELECT POWSTATE, MARITAL FROM R WHERE FERTIL > 4", func(a *engine.Arena, res string) error {
		return selectThenProject(a, res, engine.Gt("FERTIL", 4), "POWSTATE", "MARITAL")
	}},
	{"SELECT IMMIGR FROM R WHERE ENGLISH = 3 OR CITIZEN <> 0", func(a *engine.Arena, res string) error {
		return selectThenProject(a, res, engine.Or{engine.Eq("ENGLISH", 3), engine.Ne("CITIZEN", 0)}, "IMMIGR")
	}},
}

func selectThenProject(a *engine.Arena, res string, p engine.Pred, attrs ...string) error {
	tmp := res + "\x00σ"
	if err := a.Select(tmp, "R", p); err != nil {
		return err
	}
	defer a.DropRelation(tmp)
	err := a.Project(res, tmp, attrs...)
	return err
}

// TestCensusSQLStatsMatchHandBuilt is the acceptance check for the SQL
// frontend and its fused Select→Project: every Figure 29 query expressed in
// SQL — plus the carrier shapes — produces, on the engine store, identical
// representation statistics and bit-identical pre-fold confidence masses to
// the hand-built two-step plan for the same seed, at densities from the
// paper's 0.1% up to 10% (where rows with several or-sets, and so
// compositions, are common).
func TestCensusSQLStatsMatchHandBuilt(t *testing.T) {
	for _, density := range []float64{0.001, 0.02, 0.1} {
		store, orSets := prepareCensus(t, 3000, density, 7)
		if orSets == 0 {
			t.Fatal("prepared store has no or-sets; the comparison would be vacuous")
		}
		for _, name := range census.QueryNames {
			hand := store.Clone()
			viaSQL := store.Clone()
			runHandBuilt(t, hand, name, "res")
			runCensusSQL(t, viaSQL, name, "res")
			sameResult(t, fmt.Sprintf("%s at density %g", name, density), hand, viaSQL)
		}
		for _, sh := range carrierShapes {
			hand := store.Clone()
			viaSQL := store.Clone()
			ar := engine.NewArena(hand.Snapshot())
			if err := sh.hand(ar, "res"); err != nil {
				t.Fatalf("%s: hand-built: %v", sh.sql, err)
			}
			if err := ar.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := execSQL(viaSQL, sh.sql, "res"); err != nil {
				t.Fatalf("%s: %v", sh.sql, err)
			}
			sameResult(t, fmt.Sprintf("%q at density %g", sh.sql, density), hand, viaSQL)
		}
	}
}

// sameResult compares relation res of two stores: Stats, validity, and the
// pre-fold mass tables bit for bit.
func sameResult(t *testing.T, what string, hand, viaSQL *engine.Store) {
	t.Helper()
	if got, want := viaSQL.Stats("res"), hand.Stats("res"); got != want {
		t.Fatalf("%s: SQL stats %+v diverge from hand-built %+v", what, got, want)
	}
	if err := viaSQL.Validate(1e-9); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := engine.PossibleMasses(hand, "res")
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.PossibleMasses(viaSQL, "res")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d possible tuples, hand-built %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		same := engine.CompareTuples(g.Tuple, w.Tuple) == 0 && g.Certain == w.Certain && len(g.Masses) == len(w.Masses)
		for k := 0; same && k < len(g.Masses); k++ {
			same = math.Float64bits(g.Masses[k]) == math.Float64bits(w.Masses[k])
		}
		if !same {
			t.Fatalf("%s: tuple %d masses %+v, hand-built %+v", what, i, g, w)
		}
	}
}

// TestCensusSQLStatsMatchAfterChase repeats the comparison on a chased
// store, the state the Section 9 experiments query.
func TestCensusSQLStatsMatchAfterChase(t *testing.T) {
	store, _ := prepareCensus(t, 2000, 0.004, 11)
	if err := store.ChaseEGDs("R", census.Dependencies()); err != nil {
		t.Fatal(err)
	}
	for _, name := range census.QueryNames {
		hand := store.Clone()
		viaSQL := store.Clone()
		runHandBuilt(t, hand, name, "res")
		runCensusSQL(t, viaSQL, name, "res")
		if got, want := viaSQL.Stats("res"), hand.Stats("res"); got != want {
			t.Fatalf("%s: SQL stats %+v diverge from hand-built %+v", name, got, want)
		}
	}
}

// TestCensusSQLAgainstOracle closes the loop on tiny stores: the SQL
// frontend on the engine must agree with naive per-world evaluation of the
// same SQL for each single-relation Figure 29 query and carrier shape, at
// each density. Per-world evaluation enumerates the product of all or-set
// sizes, so the row count shrinks as the density grows to keep a handful
// of or-sets.
func TestCensusSQLAgainstOracle(t *testing.T) {
	queries := []string{CensusSQL["Q1"], CensusSQL["Q2"], CensusSQL["Q3"], CensusSQL["Q4"], CensusSQL["Q6"]}
	for _, sh := range carrierShapes {
		queries = append(queries, sh.sql)
	}
	for _, c := range []struct {
		density float64
		rows    int
	}{{0.002, 30}, {0.02, 5}, {0.1, 1}} {
		s, err := census.NewStore("R", c.rows, 3)
		if err != nil {
			t.Fatal(err)
		}
		n, err := census.AddNoise(s, "R", c.density, 4)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || n > 8 {
			t.Fatalf("density %g: %d or-sets, want 1-8 for a tractable oracle", c.density, n)
		}
		w, err := bridge.ToWSD(s)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := w.Rep(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			st, err := Parse(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			want, err := ExecWorlds(st, ws, "P")
			if err != nil {
				t.Fatalf("%s: per-world: %v", q, err)
			}
			db := s.Clone()
			if _, err := execSQL(db, q, "P"); err != nil {
				t.Fatalf("%s: engine: %v", q, err)
			}
			got, err := bridge.RepRelation(db, "P", 1<<22)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if !got.Equal(want.WorldSet, 1e-9) {
				t.Fatalf("%s at density %g: engine SQL result diverges from per-world SQL result", q, c.density)
			}
		}
	}
}

// TestStagedChainAgainstOracle runs mode and plain queries whose plans
// hold a chain of selections — Q3's POWSTATE = POB step among them — which
// run as one staged operator, on a census-shaped store small enough to
// enumerate: or-sets on the attributes both stages read, one composed
// across a row's fields, so that rows are decided per local world at both
// stages and fail in some of them. CONF()/POSSIBLE/CERTAIN answers must
// match per-world evaluation, and so must plain results.
func TestStagedChainAgainstOracle(t *testing.T) {
	attrs := []string{"POWSTATE", "POB", "FERTIL", "MARITAL", "CITIZEN"}
	cols := [][]int32{
		{6, 6, 7, 6, 9, 7, 6},
		{6, 7, 7, 5, 9, 6, 6},
		{5, 5, 6, 2, 5, 7, 5},
		{1, 1, 1, 1, 2, 1, 1},
		{0, 1, 0, 0, 1, 0, 1},
	}
	s := engine.NewStore()
	if _, err := s.AddRelation("R", attrs, cols); err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct {
		row  int
		attr string
		vals []int32
		p    []float64
	}{
		{0, "POWSTATE", []int32{6, 8}, []float64{0.3, 0.7}},
		{1, "FERTIL", []int32{3, 5}, []float64{0.4, 0.6}},
		{1, "POB", []int32{6, 7}, []float64{0.55, 0.45}},
		{2, "MARITAL", []int32{1, 2}, []float64{0.8, 0.2}},
		{2, "POB", []int32{7, 8}, nil},
		{4, "MARITAL", []int32{1, 3}, []float64{0.25, 0.75}},
		{5, "POB", []int32{6, 7}, []float64{0.35, 0.65}},
	} {
		if err := s.SetUncertain("R", o.row, o.attr, o.vals, o.p); err != nil {
			t.Fatal(err)
		}
	}
	// Row 2's MARITAL and POB share one component.
	base := s.Clone()
	if _, err := execSQL(base, "SELECT * FROM R WHERE MARITAL = POB", "tmp"); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT CONF() FROM R WHERE FERTIL > 4 AND MARITAL = 1 AND POWSTATE = POB",
		"SELECT POSSIBLE POWSTATE, MARITAL, FERTIL FROM R WHERE FERTIL > 4 AND MARITAL = 1 AND POWSTATE = POB",
		"SELECT CERTAIN POWSTATE FROM R WHERE FERTIL > 4 AND MARITAL = 1 AND POWSTATE = POB",
		"SELECT CONF() FROM R WHERE CITIZEN = 0 AND POWSTATE = POB AND FERTIL > MARITAL",
		"SELECT POSSIBLE CITIZEN FROM R WHERE FERTIL > 4 AND POWSTATE = POB AND MARITAL < POB",
		"SELECT POWSTATE, MARITAL, FERTIL FROM R WHERE FERTIL > 4 AND MARITAL = 1 AND POWSTATE = POB",
		"SELECT CITIZEN FROM R WHERE MARITAL = 1 AND POWSTATE = POB AND FERTIL > MARITAL",
	}
	for _, st := range []*engine.Store{s, base} {
		ws := worldSetOf(t, st)
		for _, q := range queries {
			stmt, err := Parse(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			want, err := ExecWorlds(stmt, ws, "P")
			if err != nil {
				t.Fatalf("%s: per-world: %v", q, err)
			}
			db := st.Clone()
			got, err := execSQL(db, q, "P")
			if err != nil {
				t.Fatalf("%s: engine: %v", q, err)
			}
			if got.Relation != "" {
				rep, err := bridge.RepRelation(db, "P", 1<<22)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if !rep.Equal(want.WorldSet, 1e-9) {
					t.Fatalf("%s: engine result diverges from per-world evaluation", q)
				}
				continue
			}
			if len(got.Tuples) != len(want.Tuples) {
				t.Fatalf("%s: %d tuples on engine path, %d per world", q, len(got.Tuples), len(want.Tuples))
			}
			for i := range got.Tuples {
				g, w := got.Tuples[i], want.Tuples[i]
				if !relTuple(g.Tuple).Equal(w.Tuple) || math.Abs(g.Conf-w.Conf) > 1e-9 {
					t.Fatalf("%s: tuple %d: %v conf %g, per world %v conf %g", q, i, g.Tuple, g.Conf, w.Tuple, w.Conf)
				}
			}
		}
	}
}
