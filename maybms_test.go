package maybms

// End-to-end tests through the public facade: the API a downstream user
// sees must carry the whole workflow — representation, cleaning, querying,
// confidence — without reaching into internal packages.

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestFacadeRunningExample(t *testing.T) {
	forms := NewOrSetRelation("R", "S", "N", "M")
	if err := forms.Add(OrInts(185, 785), CertainField(Str("Smith")), OrInts(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := forms.Add(OrInts(185, 186), CertainField(Str("Brown")), OrInts(1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if forms.NumWorlds() != 32 {
		t.Fatalf("worlds = %g", forms.NumWorlds())
	}
	w, err := forms.ToWSD()
	if err != nil {
		t.Fatal(err)
	}
	key := FD{Rel: "R", LHS: []string{"S"}, RHS: []string{"N", "M"}}
	if err := Chase(w, []Dependency{key}); err != nil {
		t.Fatal(err)
	}
	rep, err := w.Rep(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Canonical()); got != 24 {
		t.Fatalf("cleaned worlds = %d, want 24", got)
	}
	for _, db := range rep.Worlds {
		if !DependenciesHold([]Dependency{key}, db) {
			t.Fatal("surviving world violates the key")
		}
	}
	if err := w.Project("Q", "R", "S"); err != nil {
		t.Fatal(err)
	}
	poss, err := Possible(w, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if poss.Size() != 3 {
		t.Fatalf("possible answers = %d, want 3", poss.Size())
	}
}

func TestFacadeProbabilisticPipeline(t *testing.T) {
	// Probabilistic or-sets → WSD → query via the AST evaluator →
	// confidences, all through public names.
	r := NewOrSetRelation("R", "A", "B")
	f := OrInts(1, 2)
	f.Probs = []float64{0.25, 0.75}
	if err := r.Add(f, OrInts(5, 6).Uniform()); err != nil {
		t.Fatal(err)
	}
	w, err := r.ToWSD()
	if err != nil {
		t.Fatal(err)
	}
	q := Select{Q: Base{Rel: "R"}, Pred: Eq("A", 2)}
	if err := NewEvaluator(w).Eval(q, "P"); err != nil {
		t.Fatal(err)
	}
	c, err := Conf(w, "P", Tuple{Int(2), Int(5)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-0.75*0.5) > 1e-9 {
		t.Fatalf("conf = %g, want 0.375", c)
	}
	certain, err := Certain(w, "R", Tuple{Int(1), Int(5)}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if certain {
		t.Fatal("uncertain tuple reported certain")
	}
}

func TestFacadeUniformEncoding(t *testing.T) {
	r := NewOrSetRelation("R", "A")
	if err := r.Add(OrInts(1, 2)); err != nil {
		t.Fatal(err)
	}
	w, err := r.ToWSD()
	if err != nil {
		t.Fatal(err)
	}
	u := UniformFromWSD(w)
	st := u.Stats()
	if st.NumComp != 1 || st.CSize != 2 || st.RSize != 1 {
		t.Fatalf("stats = %+v", st)
	}
	back, err := u.Rep(0)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := w.Rep(0)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(orig, 1e-9) {
		t.Fatal("uniform roundtrip changed the world-set")
	}
}

func TestFacadeNormalizeAndFactor(t *testing.T) {
	// DecomposeRelation on a full product.
	rows := [][]Value{
		{Int(0), Int(0)}, {Int(0), Int(1)}, {Int(1), Int(0)}, {Int(1), Int(1)},
	}
	blocks := DecomposeRelation(rows, 2)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %v", blocks)
	}
	if !ValidDecomposition(rows, blocks) {
		t.Fatal("decomposition invalid")
	}
	// Normalize a WSD round-trip.
	r := NewOrSetRelation("R", "A", "B")
	if err := r.Add(OrInts(1, 2), OrInts(3, 4)); err != nil {
		t.Fatal(err)
	}
	w, err := r.ToWSD()
	if err != nil {
		t.Fatal(err)
	}
	before, err := w.Rep(0)
	if err != nil {
		t.Fatal(err)
	}
	Normalize(w)
	after, err := w.Rep(0)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(before, 1e-9) {
		t.Fatal("normalization changed the world-set")
	}
}

func TestFacadeChaseInconsistent(t *testing.T) {
	r := NewOrSetRelation("R", "A", "B")
	if err := r.Add(OrInts(1), OrInts(5)); err != nil {
		t.Fatal(err)
	}
	w, err := r.ToWSD()
	if err != nil {
		t.Fatal(err)
	}
	bad := EGD{
		Rel:        "R",
		Premise:    []DependencyAtom{{Attr: "A", Theta: EQ, Const: Int(1)}},
		Conclusion: DependencyAtom{Attr: "B", Theta: NE, Const: Int(5)},
	}
	err = Chase(w, []Dependency{bad})
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

func TestFacadeEngineStore(t *testing.T) {
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 0, "B", []int32{3, 9}, nil); err != nil {
		t.Fatal(err)
	}
	ar := NewArena(s.Snapshot())
	if _, err := ar.Select("P", "R", EngineEq("B", 9)); err != nil {
		t.Fatal(err)
	}
	st := ar.Stats("P")
	if st.RSize != 1 || st.NumComp != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFacadeChaseOptionsAndEngineChase(t *testing.T) {
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 1}, {5, 6}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 0, "B", []int32{5, 9}, nil); err != nil {
		t.Fatal(err)
	}
	dep := EngineEGD{
		Premise:    []EngineAtom{{Attr: "A", Theta: EQ, C: 1}},
		Conclusion: EngineAtom{Attr: "B", Theta: NE, C: 9},
	}
	if err := s.ChaseEGDsOpt("R", []EngineEGD{dep}, ChaseOptions(true, true)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats("R")
	if st.CSize != 1 {
		t.Fatalf("|C| = %d after chase, want 1 (value 9 removed)", st.CSize)
	}
	// Engine predicates through the facade.
	ar := NewArena(s.Snapshot())
	if _, err := ar.Select("P", "R", EngineNe("A", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ar.Select("P2", "R", EngineGt("B", 5)); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSQLFrontend(t *testing.T) {
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 0, "B", []int32{3, 9}, []float64{0.4, 0.6}); err != nil {
		t.Fatal(err)
	}
	st, err := ParseSQL("SELECT A FROM R WHERE B = 9")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != SQLPlain {
		t.Fatalf("parsed mode = %v, want plain", st.Mode)
	}
	db := Open(s)
	defer db.Close()
	res, err := db.Materialize("P", "SELECT A FROM R WHERE B = 9")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RSize != 1 {
		t.Fatalf("result stats = %+v", res.Stats)
	}
	db.DropRelation("P")

	rows, err := db.Query("SELECT CONF() FROM R WHERE B = 9")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if conf := rows.Result(); len(conf.Tuples) != 1 || math.Abs(conf.Tuples[0].Conf-0.6) > 1e-9 {
		t.Fatalf("CONF() tuples = %v", conf.Tuples)
	}

	planText, err := Explain(s, "EXPLAIN SELECT A FROM R WHERE B = 9")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planText, "Figure 16") {
		t.Fatalf("EXPLAIN output missing the Figure 16 rewriting:\n%s", planText)
	}
}

func TestFacadeSessionAPI(t *testing.T) {
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 0, "B", []int32{3, 9}, []float64{0.4, 0.6}); err != nil {
		t.Fatal(err)
	}
	db := Open(s)
	defer db.Close()
	stmt, err := db.Prepare("SELECT CONF() FROM R WHERE B = ?")
	if err != nil {
		t.Fatal(err)
	}
	for bind, wantConf := range map[int]float64{9: 0.6, 3: 0.4} {
		rows, err := stmt.Query(bind)
		if err != nil {
			t.Fatalf("bind %d: %v", bind, err)
		}
		n := 0
		for rows.Next() {
			if math.Abs(rows.Conf()-wantConf) > 1e-9 {
				t.Fatalf("bind %d: conf %g, want %g", bind, rows.Conf(), wantConf)
			}
			n++
		}
		if n != 1 {
			t.Fatalf("bind %d: %d tuples, want 1", bind, n)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Plain query with an alias, scanned through the Rows iterator; Close
	// restores the catalog.
	rows, err := db.Query("SELECT A AS id FROM R WHERE B = 4")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Columns(); len(got) != 1 || got[0] != "id" {
		t.Fatalf("columns = %v, want [id]", got)
	}
	var id int
	for rows.Next() {
		if err := rows.Scan(&id); err != nil {
			t.Fatal(err)
		}
	}
	if id != 2 {
		t.Fatalf("id = %d, want 2", id)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.Relations(); len(got) != 1 || got[0] != "R" {
		t.Fatalf("relations after Close = %v, want [R]", got)
	}
}
