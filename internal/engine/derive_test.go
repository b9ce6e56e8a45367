package engine

import (
	"strings"
	"testing"
)

// deriveFixture is R(A, B) with four rows and one or-set on (row 2, A).
func deriveFixture(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 2, 3, 4}, {5, 6, 7, 8}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 2, "A", []int32{3, 9}, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeriveStore: a derivation slices rows in order, renumbers the
// component's field, and a second derivation can keep both objects.
func TestDeriveStore(t *testing.T) {
	src := deriveFixture(t).Snapshot()
	cid := src.ComponentOf(FieldID{Rel: 0, Row: 2, Attr: 0}).ID
	d := Derivation{
		Rels:  []DerivedRel{{Rows: []int32{0, 2}}},
		Comps: []DerivedComp{{ID: cid, Fields: []FieldID{{Rel: 0, Row: 1, Attr: 0}}}},
	}
	first, err := DeriveStore(src, nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	r := first.Rel("R")
	if r.NumRows() != 2 || r.Cols[0][1] != Placeholder || r.Cols[1][1] != 7 || r.UncertainRows() != 1 {
		t.Fatalf("sliced relation: cols %v, %d uncertain rows", r.Cols, r.UncertainRows())
	}
	kept, err := DeriveStore(src, first.Snapshot(), Derivation{
		Rels:  []DerivedRel{{Keep: true}},
		Comps: []DerivedComp{{ID: cid}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if kept.Rel("R") != r || kept.ComponentOf(FieldID{Rel: 0, Row: 1, Attr: 0}) != first.ComponentOf(FieldID{Rel: 0, Row: 1, Attr: 0}) {
		t.Fatalf("a kept relation or component was rebuilt")
	}
}

// TestDeriveStoreRejects: a wrong derivation is an error, never a store
// that fails later inside an operator.
func TestDeriveStoreRejects(t *testing.T) {
	src := deriveFixture(t).Snapshot()
	cid := src.ComponentOf(FieldID{Rel: 0, Row: 2, Attr: 0}).ID
	field := func(row int32) []FieldID { return []FieldID{{Rel: 0, Row: row, Attr: 0}} }
	for _, tc := range []struct {
		name string
		d    Derivation
		want string
	}{
		{"no entry for a live relation", Derivation{}, "no entry for relation"},
		{"keep without a previous store", Derivation{Rels: []DerivedRel{{Keep: true}}}, "nothing to keep for relation"},
		{"rows out of order", Derivation{Rels: []DerivedRel{{Rows: []int32{2, 0}}}}, "not an ascending subset"},
		{"row out of range", Derivation{Rels: []DerivedRel{{Rows: []int32{4}}}}, "not an ascending subset"},
		{"placeholder without its component", Derivation{Rels: []DerivedRel{{Rows: []int32{2}}}}, "has no component"},
		{"kept component without a previous store", Derivation{Rels: []DerivedRel{{Rows: []int32{2}}}, Comps: []DerivedComp{{ID: cid}}}, "nothing to keep for component"},
		{"unknown component", Derivation{Rels: []DerivedRel{{Rows: []int32{2}}}, Comps: []DerivedComp{{ID: cid + 1, Fields: field(0)}}}, "does not match the source"},
		{"wrong arity", Derivation{Rels: []DerivedRel{{Rows: []int32{2}}}, Comps: []DerivedComp{{ID: cid, Fields: append(field(0), field(0)...)}}}, "does not match the source"},
		{"component listed twice", Derivation{Rels: []DerivedRel{{Rows: []int32{2}}}, Comps: []DerivedComp{{ID: cid, Fields: field(0)}, {ID: cid, Fields: field(0)}}}, "duplicate component id or field"},
		{"field renumbered to a certain cell", Derivation{Rels: []DerivedRel{{Rows: []int32{0, 2}}}, Comps: []DerivedComp{{ID: cid, Fields: field(0)}}}, "not a placeholder"},
		{"field renumbered out of range", Derivation{Rels: []DerivedRel{{Rows: []int32{2}}}, Comps: []DerivedComp{{ID: cid, Fields: field(1)}}}, "outside relation"},
	} {
		if _, err := DeriveStore(src, nil, tc.d); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
