package bridge

import (
	"math"
	"strings"
	"testing"

	"maybms/internal/confidence"
	"maybms/internal/engine"
)

// scopedStore builds a store whose components span two relations: res is a
// selection of R, so the copies of R's uncertain fields in res live in the
// same components as their sources.
func scopedStore(t *testing.T) *engine.Store {
	t.Helper()
	s := engine.NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 2, 3}, {10, 20, 30}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 0, "A", []int32{1, 2}, []float64{0.25, 0.75}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 2, "B", []int32{30, 40}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRelation("S", []string{"C"}, [][]int32{{5, 6}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("S", 0, "C", []int32{5, 7}, nil); err != nil {
		t.Fatal(err)
	}
	ar := engine.NewArena(s.Snapshot())
	if _, err := ar.Select("res", "R", engine.Gt("B", 15)); err != nil {
		t.Fatal(err)
	}
	if err := ar.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestToWSDOfMatchesFullBridge checks that confidences computed through the
// scoped bridge agree with the whole-store bridge for every relation.
func TestToWSDOfMatchesFullBridge(t *testing.T) {
	s := scopedStore(t)
	full, err := ToWSD(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range s.Relations() {
		scoped, err := ToWSDOf(s, rel)
		if err != nil {
			t.Fatal(err)
		}
		want, err := confidence.PossibleP(full, rel)
		if err != nil {
			t.Fatalf("%s: full bridge: %v", rel, err)
		}
		got, err := confidence.PossibleP(scoped, rel)
		if err != nil {
			t.Fatalf("%s: scoped bridge: %v", rel, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d possible tuples scoped, %d full", rel, len(got), len(want))
		}
		for i := range got {
			if !got[i].Tuple.Equal(want[i].Tuple) {
				t.Fatalf("%s: tuple %d: %v vs %v", rel, i, got[i].Tuple, want[i].Tuple)
			}
			if math.Abs(got[i].Conf-want[i].Conf) > 1e-9 {
				t.Fatalf("%s: conf of %v: %g scoped vs %g full", rel, got[i].Tuple, got[i].Conf, want[i].Conf)
			}
		}
	}
}

// TestToWSDOfScopesSize checks the point of the scoped bridge: the WSD of one
// relation does not grow with unrelated relations in the store.
func TestToWSDOfScopesSize(t *testing.T) {
	s := scopedStore(t)
	w, err := ToWSDOf(s, "S")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := w.RelAttrs("R"); ok {
		t.Fatalf("scoped WSD contains R(%v)", got)
	}
	// S has 2 rows × 1 attribute: one or-set component and one certain
	// single-field component.
	if n := len(w.Comps); n != 2 {
		t.Fatalf("scoped WSD of S has %d components, want 2", n)
	}
	if _, err := ToWSDOf(s, "nope"); err == nil || !strings.Contains(err.Error(), "unknown relation") {
		t.Fatalf("ToWSDOf(nope) = %v, want unknown relation", err)
	}
}
