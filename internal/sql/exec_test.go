package sql

import (
	"math"
	"strings"
	"testing"

	"maybms/internal/bridge"
	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/worlds"
)

// tinyStore builds a two-relation uncertain store small enough to enumerate
// every world: R(A, B) with two placeholders, S(C, D) with one.
func tinyStore(t *testing.T) *engine.Store {
	t.Helper()
	s := engine.NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 2, 3}, {10, 20, 30}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 0, "A", []int32{1, 2}, []float64{0.25, 0.75}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 2, "B", []int32{30, 40, 50}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRelation("S", []string{"C", "D"}, [][]int32{{1, 2}, {7, 8}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("S", 1, "C", []int32{2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// execSQL runs one statement through the session API against a bare store:
// a plain statement is materialized under res (the caller owns dropping it),
// a CONF()/POSSIBLE/CERTAIN statement materializes nothing and returns its
// answers in Result.Tuples.
func execSQL(s *engine.Store, input, res string) (*Result, error) {
	db := Open(s)
	st, err := Parse(input)
	if err != nil {
		return nil, err
	}
	if st.Mode == ModePlain {
		return db.Materialize(res, input)
	}
	rows, err := db.Query(input)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	return rows.Result(), nil
}

// relTuple converts an engine answer tuple to the oracle's representation.
func relTuple(t []int32) relation.Tuple {
	out := make(relation.Tuple, len(t))
	for i, v := range t {
		out[i] = relation.Int(int64(v))
	}
	return out
}

// worldSetOf enumerates the store as an explicit world-set.
func worldSetOf(t *testing.T, s *engine.Store) *worlds.WorldSet {
	t.Helper()
	w, err := bridge.ToWSD(s)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := w.Rep(0)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestEngineAgreesWithPerWorld runs every plain query on both paths — the
// native engine operators and naive per-world evaluation — and compares the
// resulting world-sets.
func TestEngineAgreesWithPerWorld(t *testing.T) {
	queries := []string{
		"SELECT * FROM R",
		"SELECT * FROM R WHERE A = 1",
		"SELECT * FROM R WHERE A = 1 OR B > 25",
		"SELECT B FROM R WHERE A <= 2 AND B < 45",
		"SELECT A FROM R WHERE A = B",
		"SELECT * FROM R WHERE A = 2 AND (B = 20 OR B = 40)",
		"SELECT * FROM R, S WHERE A = C",
		"SELECT * FROM R AS x, S AS y WHERE x.A = y.C AND y.D > 7",
		"SELECT x.A, y.D FROM R AS x, S AS y WHERE x.A = y.C",
		"SELECT * FROM R a, S b",
		"SELECT A FROM R WHERE A = 1 UNION SELECT A FROM R WHERE A = 2",
		"SELECT B FROM R WHERE B >= 30 UNION SELECT B FROM R WHERE A = 2",
		"SELECT A AS x FROM R",
		"SELECT A AS B, B AS A FROM R",
		"SELECT x.A AS a1, y.D AS d1 FROM R AS x, S AS y WHERE x.A = y.C",
		"SELECT x.A AS A FROM R AS x, S AS y WHERE x.A = y.C UNION SELECT A FROM R WHERE A = 1",
		"SELECT A FROM R EXCEPT SELECT A FROM R WHERE B > 15",
		"SELECT * FROM R EXCEPT SELECT * FROM R WHERE A = 2",
		"SELECT * FROM R EXCEPT SELECT * FROM R",
		"SELECT B FROM R WHERE B >= 30 EXCEPT SELECT B FROM R WHERE A = 2",
		"SELECT A FROM R EXCEPT SELECT C AS A FROM S",
		"SELECT A FROM R EXCEPT SELECT A FROM R WHERE B > 15 EXCEPT SELECT A FROM R WHERE A = 1",
		"SELECT A FROM R WHERE A = 1 UNION SELECT A FROM R WHERE A = 2 EXCEPT SELECT A FROM R WHERE B > 25",
		"SELECT x.A AS A FROM R AS x, S AS y WHERE x.A = y.C EXCEPT SELECT A FROM R WHERE A = 1",
	}
	for _, q := range queries {
		s := tinyStore(t)
		ws := worldSetOf(t, s)
		st, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := ExecWorlds(st, ws, "P")
		if err != nil {
			t.Fatalf("%s: per-world: %v", q, err)
		}
		res, err := execSQL(s, q, "P")
		if err != nil {
			t.Fatalf("%s: engine: %v", q, err)
		}
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("%s: store invalid after exec: %v", q, err)
		}
		if !sameAttrs(res.Attrs, want.Attrs) {
			t.Fatalf("%s: attrs diverge: engine %v, per-world %v", q, res.Attrs, want.Attrs)
		}
		got, err := bridge.RepRelation(s, "P", 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !got.Equal(want.WorldSet, 1e-9) {
			t.Fatalf("%s: engine result diverges from per-world evaluation (%d vs %d distinct worlds)",
				q, len(got.Canonical()), len(want.WorldSet.Canonical()))
		}
		s.DropRelation("P")
	}
}

// TestExceptEngineNative is the regression test for the engine-path EXCEPT
// gap: the planner used to reject EXCEPT ("not supported on the engine
// path") and only the per-world evaluator ran it. It now compiles to the
// native difference operator, executes through the session API with ? bind
// parameters, and matches the per-world result.
func TestExceptEngineNative(t *testing.T) {
	const q = "SELECT A FROM R EXCEPT SELECT A FROM R WHERE B > ?"
	s := tinyStore(t)
	ws := worldSetOf(t, s)
	st, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	wstmt, err := PrepareWorlds(ws, q)
	if err != nil {
		t.Fatal(err)
	}

	db := Open(s)
	defer db.Close()
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatalf("engine EXCEPT failed to prepare: %v", err)
	}
	if st.NumParams != 1 || stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d/%d, want 1", st.NumParams, stmt.NumParams())
	}
	for _, arg := range []int{15, 25, 45} {
		rows, err := stmt.Query(arg)
		if err != nil {
			t.Fatalf("B > %d: engine: %v", arg, err)
		}
		// The per-world executor names its result \x00result; rename the
		// engine result to match so the world-set fingerprints compare.
		ar := resultArena(t, rows)
		if err := ar.RenameRelation(rows.Result().Relation, "\x00result"); err != nil {
			t.Fatalf("B > %d: %v", arg, err)
		}
		got, err := bridge.RepRelation(ar, "\x00result", 1<<20)
		if err != nil {
			t.Fatalf("B > %d: %v", arg, err)
		}
		want, err := wstmt.Query(arg)
		if err != nil {
			t.Fatalf("B > %d: per-world: %v", arg, err)
		}
		if !got.Equal(want.WorldSet, 1e-9) {
			t.Fatalf("B > %d: engine EXCEPT diverges from per-world evaluation", arg)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// resultArena returns the arena holding an unsharded plain result, for
// tests that enumerate it through the bridge.
func resultArena(t *testing.T, rows *Rows) *engine.Arena {
	t.Helper()
	ar := rows.Result().arena
	if ar == nil {
		t.Fatal("result holds no arena")
	}
	return ar
}

// TestExceptSelfEmpty checks R EXCEPT R: empty in every world, on both
// paths, including through prepared-statement execution.
func TestExceptSelfEmpty(t *testing.T) {
	s := tinyStore(t)
	db := Open(s)
	defer db.Close()
	rows, err := db.Query("SELECT * FROM R EXCEPT SELECT * FROM R")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	got, err := bridge.RepRelation(resultArena(t, rows), rows.Result().Relation, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range got.Worlds {
		if n := w.Rel(rows.Result().Relation).Size(); n != 0 {
			t.Fatalf("R EXCEPT R has %d tuples in some world, want 0", n)
		}
	}
}

// TestSetOpSchemaErrorsAgree checks the unified set-operation schema
// acceptance: an aliased arm accepted by one planner is accepted by the
// other, and a mismatch produces the same error text on both paths.
func TestSetOpSchemaErrorsAgree(t *testing.T) {
	accepted := []string{
		"SELECT x.A AS A FROM R AS x, S AS y WHERE x.A = y.C EXCEPT SELECT A FROM R",
		"SELECT C AS A FROM S UNION SELECT A FROM R",
	}
	rejected := []string{
		"SELECT A FROM R EXCEPT SELECT * FROM S",
		"SELECT A FROM R UNION SELECT C, D FROM S",
		"SELECT A, B FROM R EXCEPT SELECT C AS A, D FROM S",
	}
	for _, q := range accepted {
		s := tinyStore(t)
		ws := worldSetOf(t, s)
		if _, err := execSQL(s, q, "P"); err != nil {
			t.Errorf("engine rejects %q: %v", q, err)
		}
		if _, err := PrepareWorlds(ws, q); err != nil {
			t.Errorf("per-world rejects %q: %v", q, err)
		}
	}
	for _, q := range rejected {
		s := tinyStore(t)
		ws := worldSetOf(t, s)
		_, engineErr := execSQL(s, q, "P")
		_, worldsErr := PrepareWorlds(ws, q)
		if engineErr == nil || worldsErr == nil {
			t.Errorf("%q: engine err = %v, per-world err = %v, want both non-nil", q, engineErr, worldsErr)
			continue
		}
		if engineErr.Error() != worldsErr.Error() {
			t.Errorf("%q: error text diverges:\n  engine:    %v\n  per-world: %v", q, engineErr, worldsErr)
		}
		if !strings.Contains(engineErr.Error(), "schema mismatch") {
			t.Errorf("%q: error %v, want schema mismatch", q, engineErr)
		}
	}
}

// TestConfAgreement compares CONF()/POSSIBLE/CERTAIN answers across paths.
func TestConfAgreement(t *testing.T) {
	queries := []string{
		"SELECT CONF() FROM R WHERE A = 2",
		"SELECT CONF() FROM R WHERE B > 25",
		"SELECT CONF() FROM R, S WHERE A = C",
		"SELECT POSSIBLE B FROM R",
		"SELECT CERTAIN B FROM R WHERE B <= 30",
		"SELECT CERTAIN A, B FROM R",
	}
	for _, q := range queries {
		s := tinyStore(t)
		ws := worldSetOf(t, s)
		st, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := ExecWorlds(st, ws, "P")
		if err != nil {
			t.Fatalf("%s: per-world: %v", q, err)
		}
		got, err := execSQL(s, q, "P")
		if err != nil {
			t.Fatalf("%s: engine: %v", q, err)
		}
		if len(got.Tuples) != len(want.Tuples) {
			t.Fatalf("%s: %d tuples on engine path, %d per world", q, len(got.Tuples), len(want.Tuples))
		}
		for i := range got.Tuples {
			if !relTuple(got.Tuples[i].Tuple).Equal(want.Tuples[i].Tuple) {
				t.Fatalf("%s: tuple %d: %v vs %v", q, i, got.Tuples[i].Tuple, want.Tuples[i].Tuple)
			}
			if math.Abs(got.Tuples[i].Conf-want.Tuples[i].Conf) > 1e-9 {
				t.Fatalf("%s: conf of %v: %g vs %g", q, got.Tuples[i].Tuple, got.Tuples[i].Conf, want.Tuples[i].Conf)
			}
		}
		// The across-world modes must leave no result relations behind.
		if got.Relation != "" || s.Rel("P") != nil {
			t.Fatalf("%s: mode query left relation %q in the store", q, got.Relation)
		}
	}
}

// TestPlanErrors sweeps resolution and planning failures.
func TestPlanErrors(t *testing.T) {
	cases := []struct {
		in      string
		wantSub string
	}{
		{"SELECT * FROM Nope", "unknown relation"},
		{"SELECT Z FROM R", "unknown column"},
		{"SELECT * FROM R WHERE Z = 1", "unknown column"},
		{"SELECT * FROM R WHERE q.A = 1", "unknown table"},
		{"SELECT * FROM R WHERE R.Z = 1", "no attribute"},
		{"SELECT * FROM R AS x, R AS y WHERE A = 1", "ambiguous"},
		{"SELECT * FROM R, R", "duplicate table name"},
		{"SELECT A, A FROM R", "duplicate column"},
		{"SELECT A FROM R UNION SELECT * FROM S", "UNION schema mismatch"},
		{"SELECT A FROM R UNION SELECT C, D FROM S", "UNION schema mismatch"},
		{"SELECT * FROM R WHERE A = 'one'", "integer codes only"},
		{"SELECT * FROM R WHERE A = 3000000000", "overflows"},
		{"SELECT A AS x, B AS x FROM R", "duplicate output column"},
		{"SELECT A AS B, B FROM R", "duplicate output column"},
		{"SELECT A FROM R WHERE B = ?", "1 parameter(s), 0 argument(s)"},
	}
	for _, c := range cases {
		s := tinyStore(t)
		_, err := execSQL(s, c.in, "P")
		if err == nil {
			t.Errorf("execSQL(%q) succeeded, want error containing %q", c.in, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("execSQL(%q) error %q, want substring %q", c.in, err, c.wantSub)
		}
		// Failed plans must not leak relations into the store.
		for _, rel := range s.Relations() {
			if rel != "R" && rel != "S" {
				t.Errorf("execSQL(%q) leaked relation %q", c.in, rel)
			}
		}
	}
}

// TestPlainResultMaterialization checks the plain-path contract: the result
// exists under the requested name, temps are gone, stats are filled.
func TestPlainResultMaterialization(t *testing.T) {
	s := tinyStore(t)
	res, err := execSQL(s, "SELECT B FROM R WHERE A = 1", "out")
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation != "out" || s.Rel("out") == nil {
		t.Fatalf("result relation %q missing", res.Relation)
	}
	if got := s.Rel("out").Attrs; len(got) != 1 || got[0] != "B" {
		t.Fatalf("result attrs = %v", got)
	}
	if res.Stats.RSize != s.Stats("out").RSize {
		t.Fatalf("stats mismatch")
	}
	for _, rel := range s.Relations() {
		if rel != "R" && rel != "S" && rel != "out" {
			t.Fatalf("temp relation %q leaked", rel)
		}
	}
	// A bare base query still materializes a fresh copy.
	if _, err := execSQL(s, "SELECT * FROM S", "copy"); err != nil {
		t.Fatal(err)
	}
	if s.Rel("copy") == nil {
		t.Fatal("bare SELECT * did not materialize a copy")
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}
