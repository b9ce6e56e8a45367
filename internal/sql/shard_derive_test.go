package sql

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/shard"
)

// builtGeneration returns the generation of the newest shard set db has
// built, without deriving the published view's own.
func builtGeneration(db *DB) int64 { return db.view.Load().newest().LastResync().Generation }

// requireSameAnswers asserts that q answers identically, confidences to the
// bit, on db and on an unsharded DB over db's current state.
func requireSameAnswers(t *testing.T, db *DB, q string) {
	t.Helper()
	want := modeTable(t, mustQuery(t, Open(db.store), q))
	if got := modeTable(t, mustQuery(t, db, q)); !slices.Equal(got, want) {
		t.Fatalf("%s on the sharded DB:\n%s\nwant the unsharded:\n%s", q, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestCommitsDeriveNoShardSet: commits and plain queries on a sharded DB
// build no shard set; the first mode query derives the published view's set
// once, across every commit since the last one built, as a delta.
func TestCommitsDeriveNoShardSet(t *testing.T) {
	db := Open(shardedStore(t, 4, 300))
	if err := db.EnableSharding(2, 2); err != nil {
		t.Fatal(err)
	}
	gen := builtGeneration(db)
	if gen != 1 {
		t.Fatalf("EnableSharding built generation %d, want 1", gen)
	}
	deps := []engine.EGD{{
		Premise:    []engine.Atom{{Attr: "A", Theta: relation.EQ, C: 41}},
		Conclusion: engine.Atom{Attr: "B", Theta: relation.LT, C: 0},
	}}
	row := slices.IndexFunc(db.Snapshot().Rel("R").Cols[0], func(v int32) bool { return v != engine.Placeholder })
	for i, commit := range []func() error{
		func() error { _, err := db.Materialize("M", "SELECT A, B FROM R WHERE A < 10"); return err },
		func() error { return db.DropRelation("M") },
		func() error { return db.SetUncertain("R", row, "A", []int32{3, 41}, nil) },
		func() error { return db.Chase("R", deps, engine.ChaseOptions{}) },
		func() error { _, err := db.Materialize("M", "SELECT A, C FROM S WHERE B < 20"); return err },
		func() error { return db.RenameRelation("M", "N") },
	} {
		if err := commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		rowsInOrder(t, mustQuery(t, db, "SELECT A, B FROM R WHERE A < 15"))
		if got := builtGeneration(db); got != gen {
			t.Fatalf("after commit %d and a plain query: newest set is generation %d, want %d (nothing derived)", i, got, gen)
		}
	}
	requireSameAnswers(t, db, "SELECT CONF() FROM R WHERE A < 15")
	st := shardSet(db).LastResync()
	if st.Generation != gen+1 || st.Full || st.RelsKept != 1 || st.RelsRebuilt != 2 {
		t.Fatalf("derived after six commits: %+v, want generation %d keeping S and rebuilding R and N", st, gen+1)
	}
	if err := db.ValidateShards(); err != nil {
		t.Fatal(err)
	}
}

// TestFirstModeQueriesDeriveOnce: eight concurrent first readers of a fresh
// view — CONF() queries and direct reads of the set — all get the one set
// it derives, and answer exactly as an unsharded DB does.
func TestFirstModeQueriesDeriveOnce(t *testing.T) {
	db := Open(shardedStore(t, 6, 5000))
	if err := db.EnableSharding(2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("M", "SELECT A, B FROM R WHERE A < 10"); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT CONF() FROM R WHERE A < 15 UNION SELECT A, B, C FROM S WHERE B < 5"
	want := modeTable(t, mustQuery(t, Open(db.store), q))
	v := db.view.Load()
	if v.set.Load() != nil {
		t.Fatal("the commit derived its view's shard set")
	}
	const readers = 8
	var sets [readers]*shard.Set
	var answers [readers][]string
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			query := func() {
				rows, err := db.Query(q)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				answers[g] = modeTable(t, rows)
			}
			if g%2 == 0 {
				query()
			}
			sh, err := v.shardSet()
			if err != nil {
				t.Errorf("reader %d: %v", g, err)
			}
			sets[g] = sh
			if g%2 == 1 {
				query()
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range sets {
		if sets[g] == nil || sets[g] != v.set.Load() {
			t.Fatalf("reader %d got shard set %p, the view holds %p: derived more than once", g, sets[g], v.set.Load())
		}
		if !slices.Equal(answers[g], want) {
			t.Fatalf("reader %d answered:\n%s\nwant the unsharded:\n%s", g, strings.Join(answers[g], "\n"), strings.Join(want, "\n"))
		}
	}
	if st := v.set.Load().LastResync(); st.Generation != 2 || st.Full {
		t.Fatalf("derived set %+v, want the delta of generation 2", st)
	}
}

// TestFailedDerivationFailsModeQueries: the derivation after a SET
// UNCERTAIN fails (injected: the error a shard set gives for a component
// whose probabilities do not sum to 1, which the engine itself refuses to
// install). The commit stands; every reader of the view's set fails
// with the re-balance error, plain and authority-placed queries go on, and
// the next view derives again from the last set built.
func TestFailedDerivationFailsModeQueries(t *testing.T) {
	db := Open(shardedStore(t, 8, 200))
	if err := db.EnableSharding(2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("M", "SELECT A, B FROM R WHERE A < 10"); err != nil {
		t.Fatal(err)
	}
	requireSameAnswers(t, db, "SELECT CONF() FROM R WHERE A < 15")
	gen := builtGeneration(db)
	row := slices.IndexFunc(db.Snapshot().Rel("M").Cols[1], func(v int32) bool { return v != engine.Placeholder })
	failNextDerivation(errors.New("shard: rebuilding shard 0: engine: derive: engine: component 1 probabilities sum to 0.6"))
	if err := db.SetUncertain("M", row, "B", []int32{1, 2}, []float64{0.3, 0.7}); err != nil {
		t.Fatalf("SET UNCERTAIN: %v (the commit does not derive a shard set)", err)
	}
	const rebalance = "sql: re-balancing the shard set: "
	_, err := db.Query("SELECT CONF() FROM R WHERE A < 15")
	if err == nil || !strings.HasPrefix(err.Error(), rebalance) || !strings.Contains(err.Error(), "sum to") {
		t.Fatalf("CONF() after an unnormalised SET UNCERTAIN: %v, want the re-balance error", err)
	}
	_, again := db.Query("SELECT POSSIBLE A FROM R")
	_, explain := db.Explain("SELECT CONF() FROM R")
	_, fps := db.ShardFingerprints()
	for what, got := range map[string]error{"a second mode query": again, "EXPLAIN": explain, "ShardFingerprints": fps, "ValidateShards": db.ValidateShards()} {
		if got == nil || got.Error() != err.Error() {
			t.Fatalf("%s: %v, want the view's one error %v", what, got, err)
		}
	}
	rowsInOrder(t, mustQuery(t, db, "SELECT A, B FROM M"))
	modeTable(t, mustQuery(t, db, "SELECT CONF() FROM R AS x, S AS y WHERE x.A = y.A AND x.B < 2 AND y.C < 2"))

	if err := db.DropRelation("M"); err != nil {
		t.Fatal(err)
	}
	if got := builtGeneration(db); got != gen {
		t.Fatalf("after the failed derivation the newest set is generation %d, want the last good %d", got, gen)
	}
	requireSameAnswers(t, db, "SELECT CONF() FROM R WHERE A < 15")
	if st := shardSet(db).LastResync(); st.Generation != gen+1 || st.Full {
		t.Fatalf("derived after the DROP: %+v, want a delta from generation %d", st, gen)
	}
	if err := db.ValidateShards(); err != nil {
		t.Fatal(err)
	}
}
