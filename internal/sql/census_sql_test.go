package sql

import (
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

// TestCensusSQLStatsMatchHandBuilt is the acceptance check for the SQL
// frontend: every Figure 29 query expressed in SQL produces, on the engine
// store, byte-identical representation statistics to the hand-built
// census.Run plan for the same seed.
func TestCensusSQLStatsMatchHandBuilt(t *testing.T) {
	store, orSets := prepareCensus(t, 3000, 0.004, 7)
	if orSets == 0 {
		t.Fatal("prepared store has no or-sets; the comparison would be vacuous")
	}
	for _, name := range census.QueryNames {
		hand := store.Clone()
		viaSQL := store.Clone()
		runHandBuilt(t, hand, name, "res")
		runCensusSQL(t, viaSQL, name, "res")
		want := hand.Stats("res")
		got := viaSQL.Stats("res")
		if got != want {
			t.Fatalf("%s: SQL stats %+v diverge from hand-built %+v", name, got, want)
		}
		if err := viaSQL.Validate(1e-9); err != nil {
			t.Fatalf("%s: %v", name, err)
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

// TestCensusSQLAgainstOracle closes the loop on a tiny store: the SQL
// frontend on the engine must agree with naive per-world evaluation of the
// same SQL for each single-relation Figure 29 query.
func TestCensusSQLAgainstOracle(t *testing.T) {
	for _, name := range []string{"Q1", "Q2", "Q3", "Q4", "Q6"} {
		// Keep the noise low: per-world evaluation enumerates the product of
		// all or-set sizes, so a handful of or-sets is already thousands of
		// worlds.
		s, err := census.NewStore("R", 30, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := census.AddNoise(s, "R", 0.002, 4); err != nil {
			t.Fatal(err)
		}
		w, err := bridge.ToWSD(s)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := w.Rep(0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Parse(CensusSQL[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := ExecWorlds(st, ws, "P")
		if err != nil {
			t.Fatalf("%s: per-world: %v", name, err)
		}
		if _, err := execSQL(s, CensusSQL[name], "P"); err != nil {
			t.Fatalf("%s: engine: %v", name, err)
		}
		got, err := bridge.RepRelation(s, "P", 1<<22)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want.WorldSet, 1e-9) {
			t.Fatalf("%s: engine SQL result diverges from per-world SQL result", name)
		}
	}
}
