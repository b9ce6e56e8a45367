package engine_test

import (
	"math/rand"
	"testing"

	"maybms/internal/bridge"
	. "maybms/internal/engine"
	"maybms/internal/worlds"
)

func TestUnionAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	for trial := 0; trial < 40; trial++ {
		s := randStore(rng)
		// Two selections over R, then their union.
		p1 := randPred(rng, []string{"A", "B", "C"}, 1)
		p2 := randPred(rng, []string{"A", "B", "C"}, 1)
		w, err := bridge.ToWSD(s)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.Rep(0)
		if err != nil {
			t.Fatal(err)
		}
		Commit(t, s, func(a *Arena) error { err := a.Select("L", "R", p1); return err })
		Commit(t, s, func(a *Arena) error { err := a.Select("S", "R", p2); return err })
		Commit(t, s, func(a *Arena) error { _, err := a.Union("U", "L", "S"); return err })
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		q := worlds.Union{
			L: worlds.Select{Q: worlds.Base{Rel: "R"}, Pred: toRelPred(p1)},
			R: worlds.Select{Q: worlds.Base{Rel: "R"}, Pred: toRelPred(p2)},
		}
		oracleCompare(t, trial, in, s, "U", q)
	}
}

func TestProductAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	for trial := 0; trial < 40; trial++ {
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
		mk("S", []string{"C"})
		w, err := bridge.ToWSD(s)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.Rep(0)
		if err != nil {
			t.Fatal(err)
		}
		Commit(t, s, func(a *Arena) error { _, err := a.Product("P", "L", "S"); return err })
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		oracleCompare(t, trial, in, s, "P",
			worlds.Product{L: worlds.Base{Rel: "L"}, R: worlds.Base{Rel: "S"}})
	}
}

func TestUnionErrors(t *testing.T) {
	s := NewStore()
	if _, err := s.AddRelation("A", []string{"X"}, [][]int32{{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRelation("B", []string{"Y"}, [][]int32{{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewArena(s.Snapshot()).Union("U", "A", "B"); err == nil {
		t.Fatal("schema mismatch must fail")
	}
	if _, err := NewArena(s.Snapshot()).Union("U", "A", "Z"); err == nil {
		t.Fatal("unknown relation must fail")
	}
	if _, err := NewArena(s.Snapshot()).Product("P", "A", "A2"); err == nil {
		t.Fatal("unknown relation must fail")
	}
	if _, err := s.AddRelation("A2", []string{"X"}, [][]int32{{2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewArena(s.Snapshot()).Product("P", "A", "A2"); err == nil {
		t.Fatal("overlapping attributes must fail")
	}
}
