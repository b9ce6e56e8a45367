package sql

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/shard"
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
// renderings — sharded plain results are shard-grouped, so order-insensitive
// comparison is the contract.
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
	sort.Strings(out)
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
// confidences of Next/Scan, for plain (multi-segment) and mode results alike.
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
	// Distributable: run morsel-parallel across the shards.
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

// shardSet returns the shard set db publishes.
func shardSet(db *DB) *shard.Set { return db.view.Load().shards }

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
// join/product/difference plans run on the authority with the shard worker
// pool — over the same store. Plain results must agree as multisets with
// identical Len and Stats, CONF/POSSIBLE/CERTAIN must be byte-identical, the
// result must hold exactly the arenas of its placement (one segment, or one
// per shard) and hand every one back on Close — drained or mid-iteration.
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
				// segs is the placement size of a distributable plan.
				segs int
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
						render = rowsAsStrings
					}
					want := render(t, wantRows)
					wantSegs := 1
					if stmt.tpl.distributable() {
						wantSegs = pl.segs
					}

					acquired, released := engine.ArenaAcquires(), engine.ArenaReleases()
					gotRows, err := pl.db.Query(q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					out, taken := arenasOut(acquired, released)
					if taken != wantSegs {
						t.Fatalf("%s: execution acquired %d arenas, want %d", label, taken, wantSegs)
					}
					if mode != ModePlain {
						wantSegs = 0 // answers are folded; every arena is already back
					}
					if len(gotRows.result.segs) != wantSegs || out != wantSegs {
						t.Fatalf("%s: %d segments holding %d arenas, want %d", label, len(gotRows.result.segs), out, wantSegs)
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

					// Close part-way through: every segment is released, read or
					// not, and the iteration ends.
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
// live in arenas over the shard snapshots it started on), holds it across at
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
	var cycles [readers]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// One published view: its shard set was built from its
				// snapshot, so the generation names both.
				v := db.view.Load()
				gen := v.shards.LastResync().Generation
				snaps := append(v.shards.Snapshots(), v.snap)
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
				for generation(db) < gen+3 {
					select {
					case <-stop:
						rows.Close()
						return
					default:
						runtime.Gosched()
					}
				}
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
	r := store.Rel("R")
	commits := 0
	for row := 0; row < r.NumRows(); row++ {
		done := commits >= 10
		for g := range cycles {
			done = done && cycles[g].Load() >= 1
		}
		if done {
			break
		}
		if r.Cols[0][row] == engine.Placeholder {
			continue
		}
		if err := db.SetUncertain("R", row, "A", []int32{r.Cols[0][row], 41}, nil); err != nil {
			t.Errorf("SetUncertain row %d: %v", row, err)
			break
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
		commits += 2
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
