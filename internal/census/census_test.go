package census

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"maybms/internal/engine"
)

func TestSchemaShape(t *testing.T) {
	if len(Attrs) != 50 {
		t.Fatalf("census schema has %d attributes, want 50", len(Attrs))
	}
	seen := map[string]bool{}
	for _, a := range Attrs {
		if seen[a.Name] {
			t.Fatalf("duplicate attribute %s", a.Name)
		}
		seen[a.Name] = true
		if a.Domain < 2 {
			t.Fatalf("attribute %s has domain %d", a.Name, a.Domain)
		}
	}
	for _, need := range []string{"CITIZEN", "IMMIGR", "FEB55", "MILITARY", "KOREAN",
		"VIETNAM", "WWII", "MARITAL", "RSPOUSE", "LANG1", "ENGLISH", "RPOB",
		"SCHOOL", "YEARSCH", "POWSTATE", "POB", "FERTIL"} {
		if !seen[need] {
			t.Fatalf("missing required attribute %s", need)
		}
	}
	if _, err := Domain("CITIZEN"); err != nil {
		t.Fatal(err)
	}
	if _, err := Domain("NOPE"); err == nil {
		t.Fatal("unknown attribute must fail")
	}
}

func TestGenerateSatisfiesDependencies(t *testing.T) {
	cols := Generate(5000, 42)
	deps := Dependencies()
	for r := 0; r < 5000; r++ {
		row := make([]int32, len(Attrs))
		for i := range Attrs {
			row[i] = cols[i][r]
			if row[i] < 0 || row[i] >= Attrs[i].Domain {
				t.Fatalf("row %d attr %s out of domain: %d", r, Attrs[i].Name, row[i])
			}
		}
		for _, d := range deps {
			holds := true
			for _, a := range d.Premise {
				if !atomHolds(a, row) {
					holds = false
					break
				}
			}
			if holds && !atomHolds(d.Conclusion, row) {
				t.Fatalf("row %d violates %v", r, d)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(100, 7)
	b := Generate(100, 7)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("generation not deterministic")
			}
		}
	}
	c := Generate(100, 8)
	same := true
outer:
	for i := range a {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
				break outer
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSelectivities(t *testing.T) {
	// Marginals must track the paper's query result ratios within a factor
	// of ~2 so the Figure 27/30 shapes carry over.
	n := 200000
	cols := Generate(n, 1)
	count := func(pred func(r int) bool) float64 {
		c := 0
		for r := 0; r < n; r++ {
			if pred(r) {
				c++
			}
		}
		return float64(c) / float64(n)
	}
	ys, ci := attrIndex("YEARSCH"), attrIndex("CITIZEN")
	q1 := count(func(r int) bool { return cols[ys][r] == 17 && cols[ci][r] == 0 })
	if q1 < 0.001 || q1 > 0.01 {
		t.Fatalf("Q1 selectivity = %.4f, want ≈0.0037", q1)
	}
	fe, rs := attrIndex("FERTIL"), attrIndex("RSPOUSE")
	q4 := count(func(r int) bool {
		return cols[fe][r] == 1 && (cols[rs][r] == 1 || cols[rs][r] == 2)
	})
	if q4 < 0.015 || q4 > 0.07 {
		t.Fatalf("Q4 selectivity = %.4f, want ≈0.032", q4)
	}
	en := attrIndex("ENGLISH")
	q6 := count(func(r int) bool { return cols[en][r] == 3 })
	if q6 < 0.008 || q6 > 0.04 {
		t.Fatalf("Q6 selectivity = %.4f, want ≈0.018", q6)
	}
}

func TestAddNoise(t *testing.T) {
	s, err := NewStore("R", 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	count, err := AddNoise(s, "R", 0.001, 4)
	if err != nil {
		t.Fatal(err)
	}
	expect := 20000 * 50 * 0.001
	if float64(count) < expect*0.6 || float64(count) > expect*1.4 {
		t.Fatalf("noise count = %d, want ≈%g", count, expect)
	}
	if got := s.TotalPlaceholders("R"); got != count {
		t.Fatalf("placeholders = %d, want %d", got, count)
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	st := s.Stats("R")
	if st.NumComp != count || st.NumCompGT1 != 0 {
		t.Fatalf("stats = %+v, want %d singleton components", st, count)
	}
	// Or-set sizes within [2, 8].
	hist := s.ComponentSizeHistogram("R")
	if hist[1] != count {
		t.Fatalf("histogram = %v", hist)
	}
}

func TestNoiseContainsTruth(t *testing.T) {
	// The chase must never empty a component: the clean data satisfies the
	// dependencies and every or-set contains the true value.
	s, err := NewStore("R", 5000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddNoise(s, "R", 0.005, 6); err != nil {
		t.Fatal(err)
	}
	if err := s.ChaseEGDs("R", Dependencies()); err != nil {
		t.Fatalf("chase on noisy-but-consistent data failed: %v", err)
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestChaseMergesComponents(t *testing.T) {
	// At meaningful density the chase composes components whose fields
	// jointly violate a dependency (the #comp>1 column of Figure 27).
	s, err := NewStore("R", 30000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddNoise(s, "R", 0.002, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.ChaseEGDs("R", Dependencies()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats("R")
	if st.NumCompGT1 == 0 {
		t.Fatal("expected some merged components after the chase")
	}
	hist := s.ComponentSizeHistogram("R")
	if hist[2] == 0 {
		t.Fatalf("expected components of size 2, histogram %v", hist)
	}
	// Most components stay singletons (Figure 28's shape).
	if hist[1] < 10*hist[2] {
		t.Fatalf("component size distribution implausible: %v", hist)
	}
}

func TestQueriesRunAndShrink(t *testing.T) {
	s, err := NewStore("R", 20000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddNoise(s, "R", 0.001, 12); err != nil {
		t.Fatal(err)
	}
	if err := s.ChaseEGDs("R", Dependencies()); err != nil {
		t.Fatal(err)
	}
	base := s.Stats("R")
	for _, q := range QueryNames {
		res := "res" + q
		if err := runCommitted(s, q, "R", res); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		st := s.Stats(res)
		if st.RSize >= base.RSize {
			t.Fatalf("%s result has %d rows, input %d — queries are selective", q, st.RSize, base.RSize)
		}
		// Figure 27: result representations stay close to one world.
		if st.CSize > base.CSize {
			t.Fatalf("%s: |C| grew from %d to %d", q, base.CSize, st.CSize)
		}
		s.DropRelation(res)
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("%s after drop: %v", q, err)
		}
	}
}

// runCommitted evaluates the named query on a fresh arena over a snapshot of
// s and commits it, landing the result relation in the store.
func runCommitted(s *engine.Store, name, src, res string) error {
	ar := engine.NewArena(s.Snapshot())
	if err := Run(ar, name, src, res); err != nil {
		return err
	}
	return ar.Commit()
}

func TestQ1SelectivityOnStore(t *testing.T) {
	s, err := NewStore("R", 100000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := runCommitted(s, "Q1", "R", "P"); err != nil {
		t.Fatal(err)
	}
	got := float64(s.Rel("P").NumRows()) / 100000
	want := 0.0037 // Figure 27: 46608 of 12.5M
	if math.Abs(got-want) > want {
		t.Fatalf("Q1 selectivity %.5f, want ≈%.5f", got, want)
	}
}

func TestRunUnknownQuery(t *testing.T) {
	s, err := NewStore("R", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := runCommitted(s, "Q9", "R", "P"); err == nil {
		t.Fatal("unknown query must fail")
	}
}

// engineStoreWithNoise is a tiny handcrafted census store for the oracle
// test in queries_oracle_test.go.
func tinyStore(t *testing.T) *engine.Store {
	t.Helper()
	n := 4
	cols := make([][]int32, len(Attrs))
	for i := range cols {
		cols[i] = make([]int32, n)
	}
	set := func(row int, attr string, v int32) {
		cols[attrIndex(attr)][row] = v
	}
	// Row 0: Q1 candidate (uncertain YEARSCH).
	set(0, "YEARSCH", 17)
	set(0, "CITIZEN", 0)
	// Row 1: Q2/Q5-left candidate.
	set(1, "CITIZEN", 1)
	set(1, "ENGLISH", 4)
	set(1, "POWSTATE", 55)
	set(1, "IMMIGR", 2)
	// Row 2: Q3/Q5-right and Q6 candidate (uncertain POWSTATE).
	set(2, "FERTIL", 5)
	set(2, "MARITAL", 1)
	set(2, "POWSTATE", 55)
	set(2, "POB", 55)
	set(2, "ENGLISH", 3)
	// Row 3: matches nothing.
	set(3, "CITIZEN", 2)
	s := engine.NewStore()
	if _, err := s.AddRelation("R", AttrNames(), cols); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 0, "YEARSCH", []int32{17, 5}, []float64{0.6, 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 2, "POWSTATE", []int32{55, 3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 1, "IMMIGR", []int32{2, 4}, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAddNoiseAllocation: a load loop on a store no snapshot has seen edits
// the relation in place — the noise costs its or-sets, a fraction of one
// copy of the relation — and once a snapshot holds the relation, each column
// the noise touches is copied once, not once per or-set.
func TestAddNoiseAllocation(t *testing.T) {
	const rows = 100000
	relBytes := uint64(rows * len(Attrs) * 4)
	noise := func(snapshot bool) uint64 {
		s, err := NewStore("R", rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		if snapshot {
			s.Snapshot()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := AddNoise(s, "R", 0.001, 2)
		runtime.ReadMemStats(&after)
		if err != nil || n < rows*len(Attrs)/2000 {
			t.Fatalf("AddNoise: %d or-sets, %v", n, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	inPlace, shared := noise(false), noise(true)
	t.Logf("relation %d bytes; AddNoise allocated %d in place, %d after a snapshot", relBytes, inPlace, shared)
	if inPlace > relBytes/2 {
		t.Errorf("AddNoise on an unshared store allocated %d bytes; the relation is %d", inPlace, relBytes)
	}
	if shared-inPlace > relBytes+relBytes/10 {
		t.Errorf("AddNoise after a snapshot allocated %d bytes more, want at most one copy of the relation (%d)", shared-inPlace, relBytes)
	}
}

// TestMaterializeOnStaleSnapshotConflicts: a Q2 or Q3 result extends R's
// components, so a MATERIALIZE of either run on a snapshot taken before
// another session's MATERIALIZE or DROP of such a result commits against a
// replaced component and is refused, while the same query on a fresh
// snapshot commits. A MATERIALIZE that ran outside the writer lock and
// committed optimistically would retry on this traffic.
func TestMaterializeOnStaleSnapshotConflicts(t *testing.T) {
	s, err := NewStore("R", 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddNoise(s, "R", 0.001, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.ChaseEGDsOpt("R", Dependencies(), engine.ChaseOptions{AssumeClean: true}); err != nil {
		t.Fatal(err)
	}
	materialize := func(snap *engine.Snapshot, q, res string) error {
		a := engine.NewArena(snap)
		if err := Run(a, q, "R", res); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return a.Commit()
	}
	conflict := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "conflicts with a concurrent change")
	}
	for _, q := range []string{"Q2", "Q3"} {
		stale := s.Snapshot()
		if err := materialize(s.Snapshot(), q, "other_"+q); err != nil {
			t.Fatal(err)
		}
		if err := materialize(stale, q, "mine_"+q); !conflict(err) {
			t.Errorf("%s on a snapshot from before another %s committed: %v, want a conflict", q, q, err)
		}
		stale = s.Snapshot()
		s.DropRelation("other_" + q)
		if err := materialize(stale, q, "mine_"+q); !conflict(err) {
			t.Errorf("%s on a snapshot from before a DROP of another %s result: %v, want a conflict", q, q, err)
		}
		if err := materialize(s.Snapshot(), q, "fresh_"+q); err != nil {
			t.Errorf("%s on a fresh snapshot: %v", q, err)
		}
	}
}
