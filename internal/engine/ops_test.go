package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

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
		if err := a.selectProject("P", "R", Eq("A", 7), attrs); err != nil {
			t.Fatal(err)
		}
		if out := a.Rel("P"); out.NumRows() != 2 {
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

// The absence gate: Validate rejects a relation that records no absence
// while one of its fields is absent in some local world, and a relation that
// records it has the absence propagated when π drops the field.
func TestValidateRejectsUnrecordedAbsence(t *testing.T) {
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 0, "A", []int32{5, 6}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	c := s.ComponentOf(FieldID{Rel: 0, Row: 0, Attr: 0})
	c.Rows[1].Absent = c.Rows[1].Absent.Set(0)
	if err := s.Validate(1e-9); err == nil {
		t.Fatal("Validate accepted an absent field of a relation recording no absence")
	}
	s.Rel("R").absence = true
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	a := NewArena(s.Snapshot())
	if err := a.Project("P", "R", "B"); err != nil {
		t.Fatal(err)
	}
	if got := a.Selection("P").Carriers(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("carriers %v, want row 0 carrying A's absence", got)
	}
}

// π over a relation recording no absence keeps every row and gives none a
// plan, so its Stats take the unmasked pass: only the kept attributes'
// fields count, as in the relation π builds.
func TestProjectionStatsCountOnlyKeptFields(t *testing.T) {
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{0, 1, 2}, {3, 4, 5}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 0, "A", []int32{5, 6}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 1, "B", []int32{7, 8, 9}, nil); err != nil {
		t.Fatal(err)
	}
	a := NewArena(s.Snapshot())
	if err := a.Project("P", "R", "B"); err != nil {
		t.Fatal(err)
	}
	if v := a.Selection("P"); v.Sel() != nil || v.plans != nil {
		t.Fatal("π over a relation without absence filtered rows or planned them")
	}
	if st := a.Selection("P").Stats(); st != (Stats{NumComp: 1, CSize: 3, RSize: 3}) {
		t.Fatalf("π_B stats %+v, want B's one component of three values", st)
	}
	CheckView(t, 0, a, "P")
}

// A wide_fetch-shaped result — a quarter of a 50-column relation, kept
// whole, under a one-attribute condition — retains its selection vector and
// a few row plans until it is built: at most 8 bytes a row beyond the
// components it adopted, where the built relation holds 4 bytes a cell.
func TestSelectionChargesItsVector(t *testing.T) {
	const rows, ncols = 20000, 50
	rng := rand.New(rand.NewSource(5))
	attrs := make([]string, ncols)
	cols := make([][]int32, ncols)
	for c := range cols {
		attrs[c] = fmt.Sprintf("A%d", c)
		cols[c] = make([]int32, rows)
		for i := range cols[c] {
			cols[c][i] = int32(rng.Intn(4))
		}
	}
	s := NewStore()
	if _, err := s.AddRelation("R", attrs, cols); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		for c := range attrs {
			if rng.Float64() < 0.001 {
				if err := s.SetUncertain("R", i, attrs[c], []int32{0, int32(1 + rng.Intn(3))}, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	a := NewArena(s.Snapshot())
	if err := a.Select("P", "R", Eq("A0", 0)); err != nil {
		t.Fatal(err)
	}
	v := a.Selection("P")
	charged := a.MemUsage()
	a.pending = nil
	comps := a.MemUsage() // what the arena holds besides the selection
	a.pending = v
	if n := int64(v.Len()); n < rows/5 || charged-comps > 8*n {
		t.Fatalf("%d rows selected, charged %d bytes beyond %d of components: want at most 8 a row", n, charged-comps, comps)
	}
	if a.Rel("P"); a.MemUsage() < 4*ncols*int64(v.Len()) {
		t.Fatalf("the built result charges %d bytes, less than its columns", a.MemUsage())
	}
}

// CheckView reads the pending result name of a in place, as the result
// reader does, then builds it: the Selection's Stats must equal those of the
// relation built, and its cells — read one by one, and in windows of 1, 3
// and 4096 rows through Cols, Sel and Carriers, as result pages are — the
// built columns.
func CheckView(t *testing.T, trial int, a *Arena, name string) {
	t.Helper()
	v := a.Selection(name)
	if v == nil || v != a.pending {
		t.Fatalf("trial %d: %s is not a pending selection", trial, name)
	}
	st := v.Stats()
	n := v.Len()
	type window struct{ lo, hi int }
	var windows []window
	for _, size := range []int{1, 3, 4096} {
		for lo := 0; lo < n; lo += size {
			windows = append(windows, window{lo, min(lo+size, n)})
		}
	}
	at := make([][]int32, len(v.Cols()))
	paged := make([][]int32, len(v.Cols()))
	for c := range at {
		for i := 0; i < n; i++ {
			at[c] = append(at[c], v.At(i, c))
		}
		for _, w := range windows {
			for i := w.lo; i < w.hi; i++ {
				row := i
				if sel := v.Sel(); sel != nil {
					row = int(sel[w.lo:w.hi][i-w.lo])
				}
				paged[c] = append(paged[c], v.Cols()[c][row])
			}
			if c == 0 {
				for _, k := range v.Carriers() {
					if int(k) >= w.lo && int(k) < w.hi {
						paged[c][len(paged[c])-(w.hi-int(k))] = Placeholder
					}
				}
			}
		}
	}
	r := a.Rel(name)
	if a.pending != nil {
		t.Fatalf("trial %d: Rel left %s pending", trial, name)
	}
	if got := a.Stats(name); got != st {
		t.Fatalf("trial %d: selection stats %+v, built relation %+v", trial, st, got)
	}
	for c, col := range r.Cols {
		if fmt.Sprint(at[c]) != fmt.Sprint(col) {
			t.Fatalf("trial %d: column %d read in place %v, built %v", trial, c, at[c], col)
		}
		var windowed []int32
		for _, w := range windows {
			windowed = append(windowed, col[w.lo:w.hi]...)
		}
		if fmt.Sprint(paged[c]) != fmt.Sprint(windowed) {
			t.Fatalf("trial %d: column %d read in windows %v, built %v", trial, c, paged[c], windowed)
		}
	}
}
