package sql

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"maybms/internal/bridge"
	"maybms/internal/engine"
	"maybms/internal/relation"
)

// catalogOf snapshots the store's relation catalog: names, attributes and
// template sizes, in a canonical rendering.
func catalogOf(s *engine.Store) string {
	names := s.Relations()
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		r := s.Rel(n)
		fmt.Fprintf(&b, "%s(%s)#%d;", n, strings.Join(r.Attrs, ","), r.NumRows())
	}
	return b.String()
}

// TestPreparedReplansZero is the tentpole acceptance test: a prepared
// statement executed twice with different bound parameters re-plans zero
// times, and each binding returns the same answers as an ad-hoc statement
// with the constant inlined.
func TestPreparedReplansZero(t *testing.T) {
	s := tinyStore(t)
	db := Open(s)
	stmt, err := db.Prepare("SELECT CONF() FROM R WHERE A = ?")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", stmt.NumParams())
	}
	before := EnginePlansCompiled()
	for _, bindv := range []int{1, 2} {
		want, err := execSQL(tinyStore(t), fmt.Sprintf("SELECT CONF() FROM R WHERE A = %d", bindv), "P")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := stmt.Query(bindv)
		if err != nil {
			t.Fatalf("bind %d: %v", bindv, err)
		}
		var got int
		for rows.Next() {
			var a relation.Value
			var bv relation.Value
			if err := rows.Scan(&a, &bv); err != nil {
				t.Fatal(err)
			}
			if math.Abs(rows.Conf()-want.Tuples[got].Conf) > 1e-9 {
				t.Fatalf("bind %d row %d: conf %g, want %g", bindv, got, rows.Conf(), want.Tuples[got].Conf)
			}
			got++
		}
		if got != len(want.Tuples) {
			t.Fatalf("bind %d: %d rows, want %d", bindv, got, len(want.Tuples))
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The ad-hoc reference statements above (inlined constants, fresh DB)
	// compiled one plan each; the prepared executions compiled none.
	execCompiles := EnginePlansCompiled() - before
	if execCompiles != 2 { // exactly the two reference statements
		t.Fatalf("prepared executions compiled %d plans, want 0 (plus 2 ad hoc)", execCompiles-2)
	}
	// Preparing the identical text again hits the DB plan cache.
	if _, err := db.Prepare("SELECT CONF() FROM R WHERE A = ?"); err != nil {
		t.Fatal(err)
	}
	if n := EnginePlansCompiled() - before; n != execCompiles {
		t.Fatalf("re-preparing cached text compiled %d extra plan(s)", n-execCompiles)
	}
}

// TestSessionCatalogRestored checks the result lifecycle: after Rows.Close
// the store's relation catalog is byte-identical to its pre-query state.
func TestSessionCatalogRestored(t *testing.T) {
	s := tinyStore(t)
	db := Open(s)
	before := catalogOf(s)
	queries := []string{
		"SELECT * FROM R WHERE A = ?",
		"SELECT x.A, y.D FROM R AS x, S AS y WHERE x.A = y.C AND y.D > ?",
		"SELECT CONF() FROM R WHERE A >= ?",
		"SELECT POSSIBLE B FROM R WHERE B > ?",
	}
	for _, q := range queries {
		rows, err := db.Query(q, 1)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for rows.Next() {
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if got := catalogOf(s); got != before {
			t.Fatalf("%s: catalog changed:\n pre %s\npost %s", q, before, got)
		}
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("%s: store invalid: %v", q, err)
		}
	}
}

// TestConcurrentPreparedQueries runs one prepared statement (and a second
// plain one) from many goroutines on one DB; run under -race this verifies
// the session locking.
func TestConcurrentPreparedQueries(t *testing.T) {
	s := tinyStore(t)
	db := Open(s)
	conf, err := db.Prepare("SELECT CONF() FROM R WHERE A = ?")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := db.Prepare("SELECT B FROM R WHERE A <= ?")
	if err != nil {
		t.Fatal(err)
	}
	// Reference answers, computed single-threaded.
	wantConf := make(map[int]int)
	for _, v := range []int{1, 2, 3} {
		res, err := execSQL(tinyStore(t), fmt.Sprintf("SELECT CONF() FROM R WHERE A = %d", v), "P")
		if err != nil {
			t.Fatal(err)
		}
		wantConf[v] = len(res.Tuples)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				v := 1 + (g+i)%3
				rows, err := conf.Query(v)
				if err != nil {
					errs <- err
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				rows.Close()
				if n != wantConf[v] {
					errs <- fmt.Errorf("CONF A=%d: %d tuples, want %d", v, n, wantConf[v])
					return
				}
				prows, err := plain.Query(v)
				if err != nil {
					errs <- err
					return
				}
				for prows.Next() {
					var b relation.Value
					if err := prows.Scan(&b); err != nil {
						errs <- err
						return
					}
				}
				prows.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	if got := db.Relations(); len(got) != 2 {
		t.Fatalf("user relations after concurrent load = %v, want [R S]", got)
	}
}

// TestExecCollisionClearError is the regression test for result-name
// collisions: Materialize must fail up front with a clear sql-level
// error — not a confusing mid-plan engine error — and leave the store
// untouched.
func TestExecCollisionClearError(t *testing.T) {
	s := tinyStore(t)
	before := catalogOf(s)
	_, err := execSQL(s, "SELECT A FROM R", "S")
	if err == nil {
		t.Fatal("Exec with colliding result name succeeded")
	}
	if !strings.Contains(err.Error(), `result relation "S" already exists`) {
		t.Fatalf("collision error = %q, want a clear result-relation message", err)
	}
	if strings.Contains(err.Error(), "engine:") {
		t.Fatalf("collision error %q leaks the engine-level failure", err)
	}
	if got := catalogOf(s); got != before {
		t.Fatalf("failed Exec changed the catalog:\n pre %s\npost %s", before, got)
	}
	// The session path cannot collide at all: results are scratch-named.
	db := Open(s)
	rows, err := db.Query("SELECT A FROM R")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if rel := rows.Result().Relation; rel == "" || rel[0] != '\x00' {
		t.Fatalf("session result relation %q is not scratch-scoped", rel)
	}
}

// TestPreparedWorldsAgree checks prepared execution against the reference:
// the same parameterized statement prepared against the engine store and
// against the explicit world-set returns identical columns and CONF()
// answers for every binding.
func TestPreparedWorldsAgree(t *testing.T) {
	s := tinyStore(t)
	ws := worldSetOf(t, s)
	db := Open(s)
	const q = "SELECT CONF() FROM R WHERE A = ? OR B = ?"
	eng, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := PrepareWorlds(ws, q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAttrs(eng.Columns(), ref.Columns()) {
		t.Fatalf("columns diverge: %v vs %v", eng.Columns(), ref.Columns())
	}
	for _, bind := range [][2]int{{1, 30}, {2, 20}} {
		er, err := eng.Query(bind[0], bind[1])
		if err != nil {
			t.Fatal(err)
		}
		rr, err := ref.Query(bind[0], bind[1])
		if err != nil {
			t.Fatal(err)
		}
		if er.Len() != len(rr.Tuples) {
			t.Fatalf("bind %v: row counts diverge", bind)
		}
		for i := 0; er.Next(); i++ {
			if math.Abs(er.Conf()-rr.Tuples[i].Conf) > 1e-9 {
				t.Fatalf("bind %v: conf %g vs %g", bind, er.Conf(), rr.Tuples[i].Conf)
			}
		}
		er.Close()
	}
}

// TestStalePlanRecompilesOnCatalogChange is the regression test for cached
// plans outliving their catalog: dropping and re-creating a relation with a
// different schema must re-prepare, not run the stale plan.
func TestStalePlanRecompilesOnCatalogChange(t *testing.T) {
	s := tinyStore(t)
	db := Open(s)
	if _, err := db.Materialize("q", "SELECT A, B FROM R WHERE A = 2"); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("SELECT * FROM q")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !sameAttrs(rows.Columns(), []string{"A", "B"}) {
		t.Fatalf("columns = %v, want [A B]", rows.Columns())
	}
	rows.Close()
	db.DropRelation("q")
	if _, err := db.Materialize("q", "SELECT B FROM R WHERE A = 2"); err != nil {
		t.Fatal(err)
	}
	// The held statement and the DB's cached plan both refer to the old
	// schema; execution must recompile against the new one.
	rows, err = stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !sameAttrs(rows.Result().Attrs, []string{"B"}) {
		t.Fatalf("stale plan survived: columns = %v, want [B]", rows.Result().Attrs)
	}
	// Row 0 of q carries a presence placeholder (its selection column was
	// projected away); row 1 is the certain (B=20) tuple.
	var certain int64
	for rows.Next() {
		var b relation.Value
		if err := rows.Scan(&b); err != nil {
			t.Fatal(err)
		}
		if b.Kind() == relation.KindInt {
			certain = b.AsInt()
		}
	}
	if certain != 20 {
		t.Fatalf("scanned %d through re-prepared plan, want 20", certain)
	}
	db.DropRelation("q")
	// Dropping the base entirely surfaces a clear re-prepare error.
	if _, err := stmt.Query(); err == nil || !strings.Contains(err.Error(), "re-preparing") {
		t.Fatalf("query after base drop = %v, want re-prepare error", err)
	}
}

// TestExplainParameterized checks that EXPLAIN renders parameterized
// statements (the plan shape is binding-independent) instead of failing on
// the unbound plan.
func TestExplainParameterized(t *testing.T) {
	s := tinyStore(t)
	out, err := Explain(s, "EXPLAIN SELECT A FROM R WHERE B = ?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "bind parameter(s) rendered") {
		t.Fatalf("EXPLAIN of parameterized statement lacks the binding note:\n%s", out)
	}
	if !strings.Contains(out, "Figure 16") {
		t.Fatalf("EXPLAIN of parameterized statement lacks the Figure 16 rewriting:\n%s", out)
	}
}

// TestRowsScan covers Scan destinations, including the uncertain-field
// contract.
func TestRowsScan(t *testing.T) {
	s := tinyStore(t)
	db := Open(s)
	rows, err := db.Query("SELECT * FROM R WHERE A = 2 AND B = 20")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !sameAttrs(rows.Columns(), []string{"A", "B"}) {
		t.Fatalf("columns = %v", rows.Columns())
	}
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	var a, b int
	if err := rows.Scan(&a, &b); err != nil {
		t.Fatal(err)
	}
	if a != 2 || b != 20 {
		t.Fatalf("scanned (%d, %d), want (2, 20)", a, b)
	}
	if err := rows.Scan(&a); err == nil || !strings.Contains(err.Error(), "destinations") {
		t.Fatalf("arity mismatch error = %v", err)
	}
	rows.Close()
	if rows.Next() {
		t.Fatal("Next after Close")
	}

	// Row 0 of R has an uncertain A: it scans as a placeholder Value, and
	// refuses a plain int destination.
	urows, err := db.Query("SELECT * FROM R WHERE B = 10")
	if err != nil {
		t.Fatal(err)
	}
	defer urows.Close()
	if !urows.Next() {
		t.Fatal("no template row for B = 10")
	}
	var av relation.Value
	var bi int
	if err := urows.Scan(&av, &bi); err != nil {
		t.Fatal(err)
	}
	if !av.IsPlaceholder() || bi != 10 {
		t.Fatalf("scanned (%v, %d), want (?, 10)", av, bi)
	}
	var ai int
	if err := urows.Scan(&ai, &bi); err == nil || !strings.Contains(err.Error(), "uncertain") {
		t.Fatalf("uncertain-into-int error = %v", err)
	}

	// An integer column renders into a *string destination.
	var bs string
	if err := urows.Scan(&av, &bs); err != nil || bs != "10" {
		t.Fatalf("int-into-string scan = %q, %v", bs, err)
	}
}

// TestSessionAliasUnion checks the satellite the grammar change unblocks: a
// join arm aliased to bare names UNIONs with a single-table arm.
func TestSessionAliasUnion(t *testing.T) {
	s := tinyStore(t)
	ws := worldSetOf(t, s)
	const q = "SELECT x.A AS A FROM R AS x, S AS y WHERE x.A = y.C UNION SELECT A FROM R WHERE A = 1"
	st, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExecWorlds(st, ws, "P")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execSQL(s, q, "P"); err != nil {
		t.Fatal(err)
	}
	got, err := bridge.RepRelation(s, "P", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want.WorldSet, 1e-9) {
		t.Fatalf("aliased UNION diverges between engine and per-world paths")
	}
	s.DropRelation("P")
}

// TestCatalogStatsFollowComponents: a relation's statistics are a function
// of the components over it, not of its *engine.Relation. A MATERIALIZE
// whose join composes components of R and S extends R's components, and its
// DROP trims them without merging them back, while R stays the same object;
// the CATALOG must report what a store rebuilt from the exported state
// reports, so a statistics cache keyed by the relation object would be
// stale here.
func TestCatalogStatsFollowComponents(t *testing.T) {
	db := Open(shardedStore(t, 3, 150))
	before := db.Stats("R")
	r := db.Snapshot().Rel("R")
	if _, err := db.Materialize("J", "SELECT x.A, y.B FROM R AS x, S AS y WHERE x.A = y.A"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropRelation("J"); err != nil {
		t.Fatal(err)
	}
	if db.Snapshot().Rel("R") != r {
		t.Fatal("R was replaced; the test needs the same relation object under changed components")
	}
	rebuilt, err := engine.ImportState(db.Snapshot().ExportState())
	if err != nil {
		t.Fatal(err)
	}
	want := rebuilt.Snapshot().Stats("R")
	if want == before {
		t.Fatalf("R's statistics %+v did not change; the join composed no component of R", want)
	}
	for _, info := range db.Catalog() {
		if info.Name == "R" {
			if info.Stats != want {
				t.Fatalf("CATALOG reports R as %+v, a rebuilt store as %+v", info.Stats, want)
			}
			return
		}
	}
	t.Fatal("CATALOG does not list R")
}
