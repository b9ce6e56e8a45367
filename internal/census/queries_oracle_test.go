package census

import (
	"testing"

	"maybms/internal/bridge"
	"maybms/internal/confidence"
	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/worlds"
)

// oracleQuery builds the worlds.Query equivalent of a Figure 29 query.
func oracleQuery(name string) worlds.Query {
	base := worlds.Base{Rel: "R"}
	switch name {
	case "Q1":
		return worlds.Select{Q: base, Pred: relation.And{
			relation.Eq("YEARSCH", 17), relation.Eq("CITIZEN", 0)}}
	case "Q2":
		return worlds.Project{
			Q: worlds.Select{Q: base, Pred: relation.And{
				relation.AttrConst{Attr: "CITIZEN", Theta: relation.NE, Const: relation.Int(0)},
				relation.Cmp("ENGLISH", relation.GT, 3)}},
			Attrs: []string{"POWSTATE", "CITIZEN", "IMMIGR"},
		}
	case "Q3":
		return worlds.Project{
			Q: worlds.Select{
				Q: worlds.Select{Q: base, Pred: relation.And{
					relation.Cmp("FERTIL", relation.GT, 4), relation.Eq("MARITAL", 1)}},
				Pred: relation.AttrAttr{A: "POWSTATE", Theta: relation.EQ, B: "POB"},
			},
			Attrs: []string{"POWSTATE", "MARITAL", "FERTIL"},
		}
	case "Q4":
		return worlds.Select{Q: base, Pred: relation.And{
			relation.Eq("FERTIL", 1),
			relation.Or{relation.Eq("RSPOUSE", 1), relation.Eq("RSPOUSE", 2)}}}
	case "Q5":
		left := worlds.Rename{
			Q:   worlds.Select{Q: oracleQuery("Q2"), Pred: relation.Cmp("POWSTATE", relation.GT, 50)},
			Old: "POWSTATE", New: "P1",
		}
		right := worlds.Rename{
			Q: worlds.Rename{
				Q: worlds.Rename{
					Q:   worlds.Select{Q: oracleQuery("Q3"), Pred: relation.Cmp("POWSTATE", relation.GT, 50)},
					Old: "POWSTATE", New: "P2"},
				Old: "MARITAL", New: "MARITAL2"},
			Old: "FERTIL", New: "FERTIL2",
		}
		return worlds.Select{
			Q:    worlds.Product{L: left, R: right},
			Pred: relation.AttrAttr{A: "P1", Theta: relation.EQ, B: "P2"},
		}
	case "Q6":
		return worlds.Project{
			Q:     worlds.Select{Q: base, Pred: relation.Eq("ENGLISH", 3)},
			Attrs: []string{"POWSTATE", "POB"},
		}
	}
	panic("unknown query " + name)
}

// TestQueriesAgainstOracle checks every Figure 29 query on a handcrafted
// uncertain census store against naive per-world evaluation. This ties the
// scalable engine to the formal semantics end to end.
func TestQueriesAgainstOracle(t *testing.T) {
	for _, name := range QueryNames {
		s := tinyStore(t)
		w, err := bridge.ToWSD(s)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.Rep(0)
		if err != nil {
			t.Fatal(err)
		}
		q := oracleQuery(name)
		want, err := worlds.EvalWorldSet(q, in, "P")
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if err := runCommitted(s, name, "R", "P"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := bridge.RepRelation(s, "P", 1<<22)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The engine result uses the engine's attribute names; for Q5 the
		// right-hand attributes were renamed identically in the oracle, so
		// schemas agree everywhere.
		if !got.Equal(want, 1e-9) {
			t.Fatalf("%s: engine result diverges from per-world evaluation: got %d distinct worlds, want %d",
				name, len(got.Canonical()), len(want.Canonical()))
		}
	}
}

// TestChaseThenQueryAgainstOracle chases the tiny store first, then runs
// each query, comparing to the filtered-and-renormalized oracle.
func TestChaseThenQueryAgainstOracle(t *testing.T) {
	deps := Dependencies()
	for _, name := range QueryNames {
		s := tinyStore(t)
		if err := s.ChaseEGDs("R", deps); err != nil {
			t.Fatalf("%s: chase: %v", name, err)
		}
		w, err := bridge.ToWSD(s)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.Rep(0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := worlds.EvalWorldSet(oracleQuery(name), in, "P")
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if err := runCommitted(s, name, "R", "P"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := bridge.RepRelation(s, "P", 1<<22)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want, 1e-9) {
			t.Fatalf("%s after chase: engine result diverges from oracle", name)
		}
	}
}

// TestConfQueryMatchesBridgeOracle checks the native confidence table of
// every Figure 29 query against the WSD-bridge path it replaced: run the
// query on an arena, convert the result through the scoped bridge, and
// score it with the confidence package.
func TestConfQueryMatchesBridgeOracle(t *testing.T) {
	for _, name := range QueryNames {
		if name == "Q5" {
			continue // defined over materialized q2/q3; covered by the sql-level tests
		}
		s := tinyStore(t)
		native, err := ConfQuery(s, name, "R")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ar := engine.NewArena(s.Snapshot())
		if err := Run(ar, name, "R", "res"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ar.Rel("res").NumRows() == 0 {
			if len(native) != 0 {
				t.Fatalf("%s: empty result has %d possible tuples", name, len(native))
			}
			continue
		}
		w, err := bridge.ToWSDOf(ar, "res")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		oracle, err := confidence.PossibleP(w, "res")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(native) != len(oracle) {
			t.Fatalf("%s: native %d tuples, oracle %d", name, len(native), len(oracle))
		}
		for i := range native {
			got := make(relation.Tuple, len(native[i].Tuple))
			for j, v := range native[i].Tuple {
				got[j] = relation.Int(int64(v))
			}
			if relation.CompareTuples(got, oracle[i].Tuple) != 0 {
				t.Fatalf("%s: tuple %d: native %v, oracle %v", name, i, got, oracle[i].Tuple)
			}
			if d := native[i].Conf - oracle[i].Conf; d > 1e-12 || d < -1e-12 {
				t.Fatalf("%s: tuple %v: native conf %g, oracle %g", name, got, native[i].Conf, oracle[i].Conf)
			}
		}
	}
}
