package engine

import "testing"

// A row whose one referenced placeholder the condition rejects in every
// local world is decided by reading its component in place: only the
// component a surviving row extends is adopted into the arena.
func TestSelectAdoptsOnlyExtendedComponents(t *testing.T) {
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{0, 0, 7}, {1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 0, "A", []int32{5, 6}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 1, "A", []int32{7, 8}, nil); err != nil {
		t.Fatal(err)
	}
	rejected, kept := FieldID{Rel: 0, Row: 0, Attr: 0}, FieldID{Rel: 0, Row: 1, Attr: 0}
	for _, attrs := range [][]string{nil, {"B"}} {
		a := NewArena(s.Snapshot())
		out, err := a.selectProject("P", "R", Eq("A", 7), attrs)
		if err != nil {
			t.Fatal(err)
		}
		if out.NumRows() != 2 {
			t.Fatalf("attrs %v: %d rows selected, want rows 1 and 2", attrs, out.NumRows())
		}
		if _, ok := a.fieldComp[rejected]; ok {
			t.Fatalf("attrs %v: the rejected row's component was adopted", attrs)
		}
		if _, ok := a.fieldComp[kept]; !ok || len(a.comps) != 1 {
			t.Fatalf("attrs %v: %d components adopted, want only the kept row's", attrs, len(a.comps))
		}
	}
}
