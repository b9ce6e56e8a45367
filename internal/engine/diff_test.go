package engine_test

import (
	"fmt"
	"testing"

	"maybms/internal/bridge"
	. "maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/worlds"
)

// These tests differential-test the native difference operator (diff.go)
// against the per-world reference: worlds.Difference evaluated over the
// enumerated world-set, and relation.Difference applied world by world.
// The generator deliberately produces the structures difference must reason
// about at tuple level: duplicate templates across the two relations (so
// certain-certain deletions fire), or-sets over a tiny domain (so uncertain
// matches are common), multi-slot and cross-relation components (so the
// composed presence masks ride on shared components), and absent fields.

// enumerate returns the full world-set of the store.
func enumerate(t *testing.T, s *Store, label string) *worlds.WorldSet {
	t.Helper()
	w, err := bridge.ToWSD(s)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ws, err := w.Rep(0)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return ws
}

func TestDifferenceMatchesWorldEnumeration(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		s := RandomDiffStore(t, seed)
		label := fmt.Sprintf("seed %d", seed)
		ws := enumerate(t, s, label)

		// Reference 1: worlds.Difference evaluated in every world.
		want, err := worlds.EvalWorldSet(worlds.Difference{L: worlds.Base{Rel: "L"}, R: worlds.Base{Rel: "R"}}, ws, "res")
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		// Reference 2: relation.Difference applied world by world agrees
		// with the world-set evaluation (tuple for tuple).
		for i, w := range ws.Worlds {
			d, err := relation.Difference(w.Rel("L"), w.Rel("R"), "res")
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !d.Equal(want.Worlds[i].Rel("res")) {
				t.Fatalf("%s: world %d: worlds.Difference and relation.Difference disagree", label, i)
			}
		}

		// Native path: Arena.Difference over a snapshot, enumerated scoped.
		ar := NewArena(s.Snapshot())
		if _, err := ar.Difference("res", "L", "R"); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, err := bridge.RepRelation(ar, "res", 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !got.Equal(want, 1e-9) {
			t.Fatalf("%s: Arena.Difference diverges from per-world difference (%d vs %d distinct worlds)",
				label, len(got.Canonical()), len(want.Canonical()))
		}

		// Confidence composes on top: the native confidence table of the
		// difference matches tuple confidences counted over the enumeration.
		conf := make(map[string]float64)
		for i, w := range want.Worlds {
			for _, tup := range w.Rel("res").Tuples() {
				conf[tup.Key()] += want.Probs[i]
			}
		}
		native, err := PossibleP(ar, "res")
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(native) != len(conf) {
			t.Fatalf("%s: native %d possible tuples, enumeration %d", label, len(native), len(conf))
		}
		for _, tc := range native {
			want, ok := conf[nativeToRelation(tc.Tuple).Key()]
			if !ok {
				t.Fatalf("%s: native tuple %v in no enumerated world", label, tc.Tuple)
			}
			if d := tc.Conf - want; d > 1e-9 || d < -1e-9 {
				t.Fatalf("%s: tuple %v: native conf %g, enumeration %g", label, tc.Tuple, tc.Conf, want)
			}
		}
	}
}

// TestDifferenceOnArenaResults checks the operator on the surface the query
// engine uses: difference over selection results inside one arena, whose
// components extend shared base components — the SQL EXCEPT shape.
func TestDifferenceOnArenaResults(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		s := RandomDiffStore(t, seed)
		label := fmt.Sprintf("seed %d", seed)
		ws := enumerate(t, s, label)
		pred := Gt("A0", 0)
		q := worlds.Difference{
			L: worlds.Base{Rel: "L"},
			R: worlds.Select{Q: worlds.Base{Rel: "R"}, Pred: relation.AttrConst{Attr: "A0", Theta: relation.GT, Const: relation.Int(0)}},
		}
		want, err := worlds.EvalWorldSet(q, ws, "res")
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ar := NewArena(s.Snapshot())
		if _, err := ar.Select("sel", "R", pred); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if _, err := ar.Difference("res", "L", "sel"); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, err := bridge.RepRelation(ar, "res", 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !got.Equal(want, 1e-9) {
			t.Fatalf("%s: difference over arena results diverges from per-world evaluation", label)
		}
	}
}

// TestDifferenceSelfEmpty checks R − R: empty in every world, whatever the
// uncertainty structure.
func TestDifferenceSelfEmpty(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		s := RandomDiffStore(t, seed)
		ar := NewArena(s.Snapshot())
		if _, err := ar.Difference("res", "R", "R"); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := bridge.RepRelation(ar, "res", 1<<20)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, w := range got.Worlds {
			if n := w.Rel("res").Size(); n != 0 {
				t.Fatalf("seed %d: world %d of R − R holds %d tuples, want 0", seed, i, n)
			}
		}
	}
}

// TestDifferenceCommit checks a committed difference: the result lands in
// the store and the store stays valid (composed components replaced
// their origins consistently).
func TestDifferenceCommit(t *testing.T) {
	for seed := int64(300); seed < 310; seed++ {
		s := RandomDiffStore(t, seed)
		want, err := worlds.EvalWorldSet(worlds.Difference{L: worlds.Base{Rel: "L"}, R: worlds.Base{Rel: "R"}},
			enumerate(t, s, fmt.Sprintf("seed %d", seed)), "res")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		Commit(t, s, func(a *Arena) error {
			_, err := a.Difference("res", "L", "R")
			return err
		})
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("seed %d: store invalid after committed difference: %v", seed, err)
		}
		got, err := bridge.RepRelation(s, "res", 1<<20)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !got.Equal(want, 1e-9) {
			t.Fatalf("seed %d: committed difference diverges from per-world evaluation", seed)
		}
	}
}

// TestDifferenceSchemaErrors sweeps the argument checks.
func TestDifferenceSchemaErrors(t *testing.T) {
	s := NewStore()
	if _, err := s.AddRelation("L", []string{"A", "B"}, [][]int32{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRelation("W", []string{"A"}, [][]int32{{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRelation("X", []string{"A", "C"}, [][]int32{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	ar := NewArena(s.Snapshot())
	if _, err := ar.Difference("res", "L", "Nope"); err == nil {
		t.Fatal("difference with unknown relation succeeded")
	}
	if _, err := ar.Difference("res", "L", "W"); err == nil {
		t.Fatal("difference with arity mismatch succeeded")
	}
	if _, err := ar.Difference("res", "L", "X"); err == nil {
		t.Fatal("difference with attribute mismatch succeeded")
	}
	if _, err := ar.Difference("L", "L", "L"); err == nil {
		t.Fatal("difference onto an existing name succeeded")
	}
}
