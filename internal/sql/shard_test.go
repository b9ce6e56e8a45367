package sql

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/shard"
	"maybms/internal/storage"
)

// shardedStore builds a store big enough to shard meaningfully: two
// relations with randomized values and or-sets placed by seed.
func shardedStore(t *testing.T, seed int64, rows int) *engine.Store {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := engine.NewStore()
	for ri, name := range []string{"R", "S"} {
		attrs := []string{"A", "B", "C"}
		cols := make([][]int32, len(attrs))
		for a := range cols {
			cols[a] = make([]int32, rows)
			for row := range cols[a] {
				cols[a][row] = int32(r.Intn(30))
			}
		}
		if _, err := s.AddRelation(name, attrs, cols); err != nil {
			t.Fatal(err)
		}
		for row := 0; row < rows; row++ {
			if r.Float64() < 0.08 {
				a := attrs[r.Intn(len(attrs))]
				alts := []int32{int32(r.Intn(30)), int32(30 + r.Intn(10)), int32(40 + ri)}
				if err := s.SetUncertain(name, row, a, alts, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s
}

// rowsAsStrings drains a plain result into a sorted multiset of row
// renderings, for comparisons against results that may order rows
// differently (a materialized relation, the per-world oracle).
func rowsAsStrings(t *testing.T, rows *Rows) []string {
	t.Helper()
	out, err := drainRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// drainRows is rowsAsStrings for goroutines that may not call t.Fatal.
func drainRows(rows *Rows) ([]string, error) {
	out, err := drainInOrder(rows)
	sort.Strings(out)
	return out, err
}

// rowsInOrder drains a plain result into its row renderings in the order
// Next yields them.
func rowsInOrder(t *testing.T, rows *Rows) []string {
	t.Helper()
	out, err := drainInOrder(rows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// drainInOrder is rowsInOrder for goroutines that may not call t.Fatal.
func drainInOrder(rows *Rows) ([]string, error) {
	defer rows.Close()
	ncols := len(rows.Columns())
	var out []string
	for rows.Next() {
		dest := make([]any, ncols)
		vals := make([]relation.Value, ncols)
		for i := range dest {
			dest[i] = &vals[i]
		}
		if err := rows.Scan(dest...); err != nil {
			return nil, err
		}
		var sb strings.Builder
		for _, v := range vals {
			fmt.Fprintf(&sb, "%s|", v)
		}
		out = append(out, sb.String())
	}
	return out, nil
}

// modeTable drains a mode result into (tuple, conf-bits) pairs.
func modeTable(t *testing.T, rows *Rows) []string {
	t.Helper()
	defer rows.Close()
	ncols := len(rows.Columns())
	var out []string
	for rows.Next() {
		dest := make([]any, ncols)
		vals := make([]relation.Value, ncols)
		for i := range dest {
			dest[i] = &vals[i]
		}
		if err := rows.Scan(dest...); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, v := range vals {
			fmt.Fprintf(&sb, "%s|", v)
		}
		fmt.Fprintf(&sb, "%016x", math.Float64bits(rows.Conf())) // exact bits, not rounded
		out = append(out, sb.String())
	}
	return out
}

// TestRowsNextBlock: draining a result in blocks yields the rows, order and
// confidences of Next/Scan, for plain and mode results alike, on a sharded
// DB.
func TestRowsNextBlock(t *testing.T) {
	db := Open(shardedStore(t, 4, 500))
	if err := db.EnableSharding(3, 3); err != nil {
		t.Fatal(err)
	}
	for _, q := range shardDiffQueries {
		rows, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want := modeTable(t, rows)
		if rows, err = db.Query(q); err != nil {
			t.Fatal(err)
		}
		var got []string
		for {
			blk := rows.NextBlock(7)
			if blk.N == 0 {
				break
			}
			for i := 0; i < blk.N; i++ {
				var sb strings.Builder
				for c := range blk.Cols {
					v := relation.Int(int64(blk.At(i, c)))
					if blk.At(i, c) == engine.Placeholder {
						v = relation.Placeholder()
					}
					fmt.Fprintf(&sb, "%s|", v)
				}
				var conf float64
				if blk.Confs != nil {
					conf = blk.Confs[i]
				}
				fmt.Fprintf(&sb, "%016x", math.Float64bits(conf))
				got = append(got, sb.String())
			}
		}
		rows.Close()
		if !slices.Equal(got, want) {
			t.Errorf("%s: NextBlock drained %d rows, Next/Scan %d, or they differ", q, len(got), len(want))
		}
	}
}

var shardDiffQueries = []string{
	// Distributable: the mode queries run morsel-parallel across the shards,
	// the plain ones on the authority.
	"SELECT * FROM R",
	"SELECT A, B FROM R WHERE A < 15",
	"SELECT A AS X FROM R WHERE B > 5 UNION SELECT A AS X FROM S WHERE C < 20",
	"SELECT CONF() FROM R WHERE A < 15",
	"SELECT POSSIBLE A, B FROM R WHERE B > 10",
	"SELECT CERTAIN A FROM R WHERE A < 25",
	"SELECT CONF() FROM R WHERE B = 7 UNION SELECT * FROM S WHERE B = 7",
	// Not distributable: fall back to the authority store (joins and
	// differences entangle components across inputs).
	"SELECT x.A, y.B FROM R AS x, S AS y WHERE x.A = y.A AND x.B < 3 AND y.C < 3",
	"SELECT CONF() FROM R AS x, S AS y WHERE x.A = y.A AND x.B < 2 AND y.C < 2",
	"SELECT A FROM R WHERE A < 10 EXCEPT SELECT A FROM S WHERE B > 3",
	"SELECT CONF() FROM R WHERE A < 10 EXCEPT SELECT * FROM S WHERE B > 3",
}

// shardSet returns the shard set of the view db publishes, derived through
// the accessor a mode query uses.
func shardSet(db *DB) *shard.Set {
	sh, err := db.view.Load().shardSet()
	if err != nil {
		panic(err)
	}
	return sh
}

// generation returns the re-balance generation of the shard set db
// publishes.
func generation(db *DB) int64 { return shardSet(db).LastResync().Generation }

// arenasOut returns how many arenas acquired since the marks are not yet
// back in the pool, and how many were acquired.
func arenasOut(acquired, released uint64) (out, taken int) {
	taken = int(engine.ArenaAcquires() - acquired)
	return taken - int(engine.ArenaReleases()-released), taken
}

// TestShardedDifferential runs the same statements through every placement
// of the one executor — an unsharded session and a sharded one, where
// plain and join/product/difference plans run serially on the authority —
// over the same store. Plain results must agree row for
// row, in order, with identical Len and Stats; CONF/POSSIBLE/CERTAIN must be
// byte-identical. A plain result holds one arena and hands it back on Close,
// drained or mid-iteration; a distributable mode query takes one arena per
// shard while it runs and holds none once it returns.
func TestShardedDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		store := shardedStore(t, seed, 150)
		plain := Open(store)
		for _, n := range []int{2, 4} {
			sharded := Open(store)
			if err := sharded.EnableSharding(n, 2); err != nil {
				t.Fatalf("seed %d: EnableSharding(%d): %v", seed, n, err)
			}
			if got, workers := sharded.Sharding(); got != n || workers < 1 {
				t.Fatalf("Sharding() = (%d, %d), want (%d, ≥1)", got, workers, n)
			}
			placements := []struct {
				name string
				db   *DB
				// shards is the placement size of a distributable mode plan.
				shards int
			}{
				{"sharded", sharded, n},
			}
			for _, q := range shardDiffQueries {
				for _, pl := range placements {
					label := fmt.Sprintf("seed %d n=%d %s %q", seed, n, pl.name, q)
					stmt, err := plain.Prepare(q)
					if err != nil {
						t.Fatalf("seed %d unsharded %q: %v", seed, q, err)
					}
					wantRows, err := stmt.Query()
					if err != nil {
						t.Fatalf("seed %d unsharded %q: %v", seed, q, err)
					}
					mode, wantLen, wantStats := wantRows.Mode(), wantRows.Len(), wantRows.Stats()
					render := modeTable
					if mode == ModePlain {
						render = rowsInOrder
					}
					want := render(t, wantRows)
					wantTaken, wantHeld := 1, 1
					if mode != ModePlain {
						wantHeld = 0 // answers are folded; every arena is already back
						if stmt.tpl.distributable() {
							wantTaken = pl.shards
						}
					}

					acquired, released := engine.ArenaAcquires(), engine.ArenaReleases()
					gotRows, err := pl.db.Query(q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					out, taken := arenasOut(acquired, released)
					if taken != wantTaken {
						t.Fatalf("%s: execution acquired %d arenas, want %d", label, taken, wantTaken)
					}
					if held := gotRows.result.arena != nil; out != wantHeld || held != (wantHeld == 1) {
						t.Fatalf("%s: result holds an arena %v, %d arenas out, want %d", label, held, out, wantHeld)
					}
					if gotRows.Len() != wantLen || gotRows.Stats() != wantStats {
						t.Fatalf("%s: Len/Stats %d %+v, want %d %+v", label, gotRows.Len(), gotRows.Stats(), wantLen, wantStats)
					}
					got := render(t, gotRows)
					if len(want) != len(got) {
						t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
					}
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("%s row %d not identical:\n got %s\nwant %s", label, i, got[i], want[i])
						}
					}
					if out, _ := arenasOut(acquired, released); out != 0 {
						t.Fatalf("%s: %d arenas still out after Close", label, out)
					}

					// Close part-way through: the arena is released, read or not,
					// and the iteration ends.
					midRows, err := pl.db.Query(q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					total := midRows.Len()
					for i := 0; i < total/2+1 && midRows.Next(); i++ {
					}
					if err := midRows.Close(); err != nil {
						t.Fatalf("%s: Close mid-iteration: %v", label, err)
					}
					if midRows.Next() || midRows.Len() != 0 {
						t.Fatalf("%s: rows still iterate after Close", label)
					}
					if out, _ := arenasOut(acquired, released); out != 0 {
						t.Fatalf("%s: %d arenas still out after Close mid-iteration", label, out)
					}
				}
			}
			if err := sharded.ValidateShards(); err != nil {
				t.Fatalf("seed %d n=%d: %v", seed, n, err)
			}
		}
	}
}

// TestShardedCommitWhileReading exercises commit + re-balance while readers
// hold sharded snapshots, under -race: Materialize/Drop loops — each a delta
// re-balance that keeps every shard's copy of R — against concurrent
// distributable queries. Each reader also opens a plain result (its rows
// read the authority snapshot it started on), holds it across at
// least three further re-balance generations and only then scans it: the
// pre-commit answer must still come out.
func TestShardedCommitWhileReading(t *testing.T) {
	store := shardedStore(t, 9, 300)
	db := Open(store)
	if err := db.EnableSharding(4, 2); err != nil {
		t.Fatal(err)
	}
	const held = "SELECT A, B FROM R WHERE A < 15"
	wantHeld := rowsAsStrings(t, mustQuery(t, db, held))
	const readers = 3
	stop := make(chan struct{})
	var cycles [readers]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				rows, err := db.Query(held)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				for gen := generation(db); generation(db) < gen+3; {
					select {
					case <-stop:
						rows.Close()
						return
					default:
					}
					conf, err := db.Query("SELECT CONF() FROM R WHERE A < 15")
					if err != nil {
						rows.Close()
						t.Errorf("reader: %v", err)
						return
					}
					conf.Close()
				}
				var got []string
				var a, b relation.Value
				for rows.Next() {
					if err := rows.Scan(&a, &b); err != nil {
						t.Errorf("reader: scanning a held result: %v", err)
					}
					got = append(got, fmt.Sprintf("%s|%s|", a, b))
				}
				rows.Close()
				sort.Strings(got)
				if !slices.Equal(got, wantHeld) {
					t.Errorf("reader: a result held across three re-balances has %d rows, want the pre-commit %d", len(got), len(wantHeld))
					return
				}
				cycles[g].Add(1)
			}
		}(g)
	}
	for i := 0; i < 1000; i++ {
		done := i >= 10
		for g := range cycles {
			done = done && cycles[g].Load() >= 1
		}
		if done {
			break
		}
		res := fmt.Sprintf("M%d", i)
		if _, err := db.Materialize(res, "SELECT A, B FROM R WHERE A < 10"); err != nil {
			t.Errorf("Materialize %s: %v", res, err)
			break
		}
		if err := db.DropRelation(res); err != nil {
			t.Errorf("Drop %s: %v", res, err)
			break
		}
		if st := shardSet(db).LastResync(); st.Full || st.CellsCopied != 0 {
			t.Errorf("re-balance after DROP %s: %+v, want a delta copying nothing", res, st)
			break
		}
	}
	close(stop)
	wg.Wait()
	for g := range cycles {
		if cycles[g].Load() < 1 {
			t.Errorf("reader %d never held a result across three re-balance generations", g)
		}
	}
	if err := db.ValidateShards(); err != nil {
		t.Fatal(err)
	}
	// The materialized relations were dropped again: sharded and unsharded
	// answers must still agree exactly.
	plain := Open(store)
	want := modeTable(t, mustQuery(t, plain, "SELECT CONF() FROM R WHERE A < 15"))
	got := modeTable(t, mustQuery(t, db, "SELECT CONF() FROM R WHERE A < 15"))
	if len(want) != len(got) {
		t.Fatalf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("answer %d: %s, want %s", i, got[i], want[i])
		}
	}
}

// TestMutatorsUnderReaders runs SET UNCERTAIN + CHASE commits on a 2-shard
// DB against readers, under -race. Each reader pins a snapshot set (the
// shards' and the authority's) and opens a plain result, holds both across
// at least three further re-balance generations, and must then read what it
// pinned: the mutators replace what a snapshot holds, they never edit it.
// The same holds for a writer that lost the race: an arena over a snapshot
// the mutators have since left behind cannot commit.
func TestMutatorsUnderReaders(t *testing.T) {
	store := shardedStore(t, 11, 300)
	db := Open(store)
	if err := db.EnableSharding(2, 2); err != nil {
		t.Fatal(err)
	}
	const held = "SELECT A, B FROM R WHERE A < 15"
	// Every alternative the writer adds is 41; the chase removes it again.
	deps := []engine.EGD{{
		Premise:    []engine.Atom{{Attr: "A", Theta: relation.EQ, C: 41}},
		Conclusion: engine.Atom{Attr: "B", Theta: relation.LT, C: 0},
	}}
	// answers maps a re-balance generation to held's answer on it; only the
	// writer commits, and it records the answer before its next commit.
	var answers sync.Map
	record := func() { answers.Store(generation(db), rowsAsStrings(t, mustQuery(t, db, held))) }
	record()
	render := func(snaps []*engine.Snapshot) string {
		var b strings.Builder
		for _, sn := range snaps {
			b.WriteString(FlatState(sn.ExportState()))
		}
		return b.String()
	}

	const readers = 3
	stop := make(chan struct{})
	// holding[g] is set while reader g holds a result of the current
	// generation, exited[g] once reader g has returned.
	var cycles [readers]atomic.Int64
	var holding, exited [readers]atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer exited[g].Store(true)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// One published view: its shard set was built from its
				// snapshot, so the generation names both.
				v := db.view.Load()
				sh, err := v.shardSet()
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				gen := sh.LastResync().Generation
				snaps := append(sh.Snapshots(), v.snap)
				pinned := render(snaps)
				rows, err := db.Query(held)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if generation(db) != gen {
					rows.Close() // a commit landed in between: no single generation to check against
					continue
				}
				holding[g].Store(true)
				for generation(db) < gen+3 {
					select {
					case <-stop:
						rows.Close()
						return
					default:
						runtime.Gosched()
					}
				}
				holding[g].Store(false)
				got, err := drainRows(rows)
				if err != nil {
					t.Errorf("reader: scanning a held result: %v", err)
					return
				}
				want, _ := answers.Load(gen)
				if !slices.Equal(got, want.([]string)) {
					t.Errorf("reader: a result of generation %d held across three re-balances has %d rows, want the pre-commit %d", gen, len(got), len(want.([]string)))
					return
				}
				if render(snaps) != pinned {
					t.Errorf("reader: a snapshot set pinned at generation %d changed under it", gen)
					return
				}
				cycles[g].Add(1)
			}
		}(g)
	}
	// The writer commits SET UNCERTAIN + CHASE pairs on rows whose A and B
	// are both certain, so every CHASE drops the alternative it added and
	// replaces R, whatever the readers do. Before each pair it waits until
	// every reader holds a result; two pairs carry a held result past three
	// re-balances. It goes on until every reader has completed a cycle or
	// exited, within a minute.
	r := store.Rel("R")
	done := func() bool {
		for g := range cycles {
			if cycles[g].Load() < 1 && !exited[g].Load() {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(time.Minute)
script:
	for row := 0; !done() && row < r.NumRows(); row++ {
		if r.Cols[0][row] == engine.Placeholder || r.Cols[1][row] == engine.Placeholder {
			continue
		}
		for ; ; runtime.Gosched() {
			ready := true
			for g := range holding {
				ready = ready && (holding[g].Load() || exited[g].Load())
			}
			if ready {
				break
			}
			if time.Now().After(deadline) {
				t.Error("the readers held no result for a minute")
				break script
			}
		}
		if err := db.SetUncertain("R", row, "A", []int32{r.Cols[0][row], 41}, nil); err != nil {
			t.Errorf("SetUncertain row %d: %v", row, err)
			break script
		}
		record()
		if err := db.Chase("R", deps, engine.ChaseOptions{}); err != nil {
			t.Errorf("Chase after row %d: %v", row, err)
			break
		}
		record()
		if st := shardSet(db).LastResync(); st.Full || st.RelsKept != 1 {
			t.Errorf("re-balance after CHASE: %+v, want a delta keeping S", st)
			break
		}
	}
	close(stop)
	wg.Wait()
	for g := range cycles {
		if cycles[g].Load() < 1 {
			t.Errorf("reader %d never held a snapshot set across three re-balance generations", g)
		}
	}
	if err := db.ValidateShards(); err != nil {
		t.Fatal(err)
	}

	// A writer that lost the race: its arena extended R's components before
	// a SET UNCERTAIN replaced R, or before a CHASE replaced a component.
	staleArena := func() *engine.Arena {
		ar := engine.NewArena(db.Snapshot())
		if err := ar.Select("Z", "R", engine.Gt("A", -1)); err != nil {
			t.Fatal(err)
		}
		return ar
	}
	row := slices.IndexFunc(db.Snapshot().Rel("R").Cols[1], func(v int32) bool { return v != engine.Placeholder })
	ar := staleArena()
	if err := db.SetUncertain("R", row, "B", []int32{1, 41}, nil); err != nil {
		t.Fatal(err)
	}
	if err := ar.Commit(); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("commit of an arena older than a SET UNCERTAIN on R: %v, want a conflict", err)
	}
	ar = staleArena()
	if err := db.Chase("R", []engine.EGD{{
		Premise:    []engine.Atom{{Attr: "B", Theta: relation.EQ, C: 41}},
		Conclusion: engine.Atom{Attr: "C", Theta: relation.LT, C: 0},
	}}, engine.ChaseOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := ar.Commit(); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("commit of an arena older than a CHASE on R: %v, want a conflict", err)
	}
}

func mustQuery(t *testing.T, db *DB, q string) *Rows {
	t.Helper()
	rows, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestAutoShardingThreshold: EnableSharding(0, 0) stays off below
// AutoShardRows regardless of core count.
func TestAutoShardingThreshold(t *testing.T) {
	db := Open(shardedStore(t, 1, 50))
	if err := db.EnableSharding(0, 0); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Sharding(); n != 1 {
		t.Fatalf("auto sharding on a %d-row store picked %d shards, want 1", 100, n)
	}
}

// TestShardedExplain: EXPLAIN on a sharded session reports the strategy, the
// last re-balance's counts (golden, the duration masked) and per-shard
// statistics.
func TestShardedExplain(t *testing.T) {
	db := Open(shardedStore(t, 2, 200))
	if err := db.EnableSharding(2, 1); err != nil {
		t.Fatal(err)
	}
	shardLine := func(query string) string {
		t.Helper()
		out, err := db.Explain(query)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"R[shard 0]", "R[shard 1]"} {
			if !strings.Contains(out, want) {
				t.Fatalf("EXPLAIN output missing %q:\n%s", want, out)
			}
		}
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "-- sharded: ") {
				return line[:strings.LastIndex(line, ", ")] + ", <duration>"
			}
		}
		t.Fatalf("EXPLAIN output has no sharded line:\n%s", out)
		return ""
	}
	conf := "SELECT CONF() FROM R WHERE A < 15"
	st := db.Stats("R")
	if got, want := shardLine(conf), fmt.Sprintf("-- sharded: 2 shards, 1 workers, re-balance generation 1: morsel-parallel across shards; "+
		"last re-balance full, relations 0 kept 2 rebuilt, components 0 kept %d rebuilt, 1200 cells copied, rows per shard [200 200], <duration>",
		st.NumComp+db.Stats("S").NumComp); got != want {
		t.Fatalf("EXPLAIN after boot:\n got %s\nwant %s", got, want)
	}
	// A materialized selection of R is the only thing the next re-balance
	// copies; its rows follow the R rows they are correlated with only where
	// they carry a placeholder, so the deal may be uneven — this line is
	// where that shows.
	res, err := db.Materialize("M", "SELECT A, B FROM R WHERE A < 10")
	if err != nil {
		t.Fatal(err)
	}
	last := shardSet(db).LastResync()
	if last.Full || last.RelsKept != 2 || last.RelsRebuilt != 1 || last.CellsCopied != int64(2*res.Stats.RSize) {
		t.Fatalf("re-balance after MATERIALIZE: %+v, want a delta copying M's %d rows x 2 columns", last, res.Stats.RSize)
	}
	if got, want := shardLine(conf), fmt.Sprintf("-- sharded: 2 shards, 1 workers, re-balance generation 2: morsel-parallel across shards; "+
		"last re-balance delta, relations 2 kept 1 rebuilt, components %d kept %d rebuilt, %d cells copied, rows per shard %v, <duration>",
		last.CompsKept, last.CompsRebuilt, 2*res.Stats.RSize, last.ShardRows); got != want {
		t.Fatalf("EXPLAIN after MATERIALIZE:\n got %s\nwant %s", got, want)
	}
	if last.CompsKept+last.CompsRebuilt != st.NumComp+db.Stats("S").NumComp || last.CompsRebuilt == 0 || last.CompsRebuilt >= st.NumComp {
		t.Fatalf("re-balance after MATERIALIZE: %+v, want only the components M extends rebuilt", last)
	}
	if got := shardLine("SELECT x.A FROM R AS x, S AS y WHERE x.A = y.A"); !strings.Contains(got, "authority") {
		t.Fatalf("EXPLAIN of a join should report authority fallback:\n%s", got)
	}
}

// TestShardedExplainPlain: on a sharded session EXPLAIN places a plain plan,
// distributable or not, on the authority.
func TestShardedExplainPlain(t *testing.T) {
	db := Open(shardedStore(t, 2, 200))
	if err := db.EnableSharding(2, 1); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"SELECT A, B FROM R WHERE A < 15", "SELECT x.A FROM R AS x, S AS y WHERE x.A = y.A"} {
		out, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "re-balance generation 1: authority (plain results read one snapshot); ") {
			t.Fatalf("EXPLAIN %s does not place the plain plan on the authority:\n%s", q, out)
		}
	}
}

// gateStore is a small store whose σ on A fails in some local worlds of
// four rows: R(A, B, C) with or-sets on A and B, six in all, so the per-world
// oracle stays tractable.
func gateStore(t *testing.T) *engine.Store {
	t.Helper()
	s := engine.NewStore()
	cols := [][]int32{
		{1, 2, 1, 3, 1, 2, 1, 3, 2, 1},
		{5, 6, 7, 5, 6, 7, 5, 6, 7, 5},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	}
	if _, err := s.AddRelation("R", []string{"A", "B", "C"}, cols); err != nil {
		t.Fatal(err)
	}
	for _, u := range []struct {
		row   int
		attr  string
		vals  []int32
		probs []float64
	}{
		{0, "A", []int32{1, 2}, []float64{0.375, 0.625}},
		{3, "A", []int32{1, 3, 4}, []float64{0.5, 0.125, 0.375}},
		{6, "A", []int32{2, 1}, []float64{0.25, 0.75}},
		{9, "A", []int32{1, 4}, nil},
		{3, "B", []int32{5, 8}, []float64{0.625, 0.375}},
		{7, "B", []int32{6, 5}, nil},
	} {
		if err := s.SetUncertain("R", u.row, u.attr, u.vals, u.probs); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestAbsenceSurvivesCommit: a MATERIALIZEd σ whose condition fails in some
// local worlds of its placeholders records absence, and the record survives
// the commit, the shard re-balance and a save → restore. A later projection
// that drops the absent attribute must still propagate the absence: its
// carriers, Stats and POSSIBLE answers equal those of the two-step plan in
// one arena (where the σ result is built in place) and the per-world oracle.
func TestAbsenceSurvivesCommit(t *testing.T) {
	const (
		mat  = "SELECT * FROM R WHERE A = 1"
		proj = "SELECT B FROM M"
		poss = "SELECT POSSIBLE B FROM M"
	)
	base := gateStore(t)
	ar := engine.NewArena(base.Snapshot())
	if err := ar.Select("M", "R", engine.Eq("A", 1)); err != nil {
		t.Fatal(err)
	}
	if err := ar.Project("res", "M", "B"); err != nil {
		t.Fatal(err)
	}
	wantCarriers, wantStats := len(ar.Selection("res").Carriers()), ar.Selection("res").Stats()
	if wantCarriers == 0 {
		t.Fatal("the two-step plan has no carriers; the check would be vacuous")
	}
	tms, err := ar.PossibleMasses("res")
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.FoldMassTable(nil, tms)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Parse("SELECT POSSIBLE B FROM R WHERE A = 1")
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := ExecWorlds(st, worldSetOf(t, base), "P")
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle.Tuples) != len(want) {
		t.Fatalf("two-step plan: %d answers, oracle %d", len(want), len(oracle.Tuples))
	}
	for i, tc := range want {
		o := oracle.Tuples[i]
		if relation.CompareTuples(relTuple(tc.Tuple), o.Tuple) != 0 || math.Abs(tc.Conf-o.Conf) > 1e-9 {
			t.Fatalf("two-step plan answer %d: %v %g, oracle %v %g", i, tc.Tuple, tc.Conf, o.Tuple, o.Conf)
		}
	}

	check := func(label string, db *DB) {
		t.Helper()
		if m := db.Snapshot().Rel("M"); m == nil || !m.RecordsAbsence() {
			t.Fatalf("%s: the materialized σ does not record absence", label)
		}
		rows := mustQuery(t, db, proj)
		carriers := len(rows.result.out.Carriers())
		stats := rows.Stats()
		rows.Close()
		if carriers != wantCarriers || stats != wantStats {
			t.Fatalf("%s: %d carriers, Stats %+v; two-step plan %d, %+v", label, carriers, stats, wantCarriers, wantStats)
		}
		rows = mustQuery(t, db, poss)
		got := rows.Result().Tuples
		rows.Close()
		if len(got) != len(want) {
			t.Fatalf("%s: %d answers, two-step plan %d", label, len(got), len(want))
		}
		for i := range got {
			if engine.CompareTuples(got[i].Tuple, want[i].Tuple) != 0 || math.Float64bits(got[i].Conf) != math.Float64bits(want[i].Conf) {
				t.Fatalf("%s: answer %d %v %g, two-step plan %v %g", label, i, got[i].Tuple, got[i].Conf, want[i].Tuple, want[i].Conf)
			}
		}
	}
	open := func(db *DB, shards int) *DB {
		t.Helper()
		if shards > 1 {
			if err := db.EnableSharding(shards, 2); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	dir := t.TempDir()
	for _, shards := range []int{1, 2} {
		label := fmt.Sprintf("%d shards", shards)
		db := open(Open(base.Clone()), shards)
		if _, err := db.Materialize("M", mat); err != nil {
			t.Fatal(err)
		}
		check(label, db)
		if shards == 1 {
			// Save: a checkpoint writes M's components, absent bits and all.
			durable, err := InitDir(dir, base.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := durable.Materialize("M", mat); err != nil {
				t.Fatal(err)
			}
			if err := durable.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			durable.Close()
		}
		// Restore: nothing to replay, so M's record comes from its
		// components alone.
		restored, replayed, err := Restore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if replayed != 0 {
			t.Fatalf("restore replayed %d records after a checkpoint", replayed)
		}
		check(label+" after save → restore", open(restored, shards))
		restored.Close()
	}
}

// TestAbsenceGateStaysClear: base relations — CSV-ingested through the
// catalog or bulk-loaded into a fresh store, and census-generated — record
// no absence, and keep recording none across CHASE, SET UNCERTAIN and a
// MATERIALIZE/DROP cycle, on the authority store and on every shard. Their
// projections then skip the per-placeholder absence probes; a set flag there
// would cost every mode query the probes again.
func TestAbsenceGateStaysClear(t *testing.T) {
	const csv = "A,B,C\n1|2,9|4,3\n1,5,2|7\n2|1,9,1\n3,9,4\n1,4|9,5\n2,6,6\n"
	path := filepath.Join(t.TempDir(), "r.csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	csvDeps := []engine.EGD{{
		Premise:    []engine.Atom{{Attr: "A", Theta: relation.EQ, C: 1}},
		Conclusion: engine.Atom{Attr: "B", Theta: relation.NE, C: 9},
	}}
	ingested := Open(engine.NewStore())
	if _, err := ingested.IngestCSV(path, "R"); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := storage.LoadCSV(f, path, "R")
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	generated, _ := prepareCensus(t, 2000, 0.004, 11)
	for _, c := range []struct {
		name string
		db   *DB
		deps []engine.EGD
		// cond fails in some local world of a placeholder it reads.
		cond string
	}{
		{"CSV ingested", ingested, csvDeps, "A = 2"},
		{"CSV bulk-loaded", Open(loaded), csvDeps, "A = 2"},
		{"census generated", Open(generated), census.Dependencies(), "YEARSCH = 17"},
	} {
		db := c.db
		if err := db.EnableSharding(2, 2); err != nil {
			t.Fatal(err)
		}
		clear := func(step string) {
			t.Helper()
			snaps := append([]*engine.Snapshot{db.Snapshot()}, shardSet(db).Snapshots()...)
			for i, sn := range snaps {
				if sn.Rel("R").RecordsAbsence() {
					t.Fatalf("%s after %s: R records absence on snapshot %d (0 = authority)", c.name, step, i)
				}
			}
		}
		clear("load")
		if err := db.Chase("R", c.deps, engine.ChaseOptions{}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		clear("CHASE")
		r := db.Snapshot().Rel("R")
		row := slices.IndexFunc(r.Cols[2], func(v int32) bool { return v != engine.Placeholder })
		if err := db.SetUncertain("R", row, r.Attrs[2], []int32{r.Cols[2][row], r.Cols[2][row] + 1}, nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		clear("SET UNCERTAIN")
		if _, err := db.Materialize("M", "SELECT * FROM R WHERE "+c.cond); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !db.Snapshot().Rel("M").RecordsAbsence() {
			t.Fatalf("%s: the σ on a failing placeholder condition records no absence", c.name)
		}
		clear("MATERIALIZE")
		if err := db.DropRelation("M"); err != nil {
			t.Fatal(err)
		}
		clear("DROP")
		if err := db.ValidateShards(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}
