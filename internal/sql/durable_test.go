package sql_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"maybms/internal/bench"
	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/server"
	"maybms/internal/server/client"
	"maybms/internal/sql"
	"maybms/internal/storage"
)

func prepared(t *testing.T) *engine.Store {
	t.Helper()
	p, err := bench.Prepare(800, 0.002, 5)
	if err != nil {
		t.Fatal(err)
	}
	return p.Store
}

// TestRestoreFreshDir: an empty directory reports ErrNoSnapshot, InitDir
// initializes it, and a Restore finds the snapshot with nothing to replay.
func TestRestoreFreshDir(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := sql.Restore(dir); !errors.Is(err, storage.ErrNoSnapshot) {
		t.Fatalf("Restore on fresh dir: got %v, want ErrNoSnapshot", err)
	}
	db, err := sql.InitDir(dir, prepared(t))
	if err != nil {
		t.Fatal(err)
	}
	if db.DataDir() != dir {
		t.Fatalf("DataDir = %q, want %q", db.DataDir(), dir)
	}
	db.Close()

	db2, replayed, err := sql.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if replayed != 0 {
		t.Fatalf("replayed %d records from a freshly initialized dir", replayed)
	}
	if got := db2.Stats("R").RSize; got != 800 {
		t.Fatalf("restored relation holds %d rows, want 800", got)
	}
}

// TestWALReplayAfterKill: commits made after the snapshot live only in the
// log; closing without a checkpoint (a crash, as far as the directory is
// concerned) and restoring must replay them.
func TestWALReplayAfterKill(t *testing.T) {
	dir := t.TempDir()
	db, err := sql.InitDir(dir, prepared(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("HighSS", "SELECT AGE FROM R WHERE AGE > 10"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("ByYear", "SELECT AGE FROM R WHERE YEARSCH = ?", 17); err != nil {
		t.Fatal(err)
	}
	db.DropRelation("HighSS")
	if err := db.RenameRelation("ByYear", "Kept"); err != nil {
		t.Fatal(err)
	}
	wantStats := db.Stats("Kept")
	// Close without Checkpoint: the snapshot predates every commit above.
	db.Close()

	db2, replayed, err := sql.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if replayed != 4 {
		t.Fatalf("replayed %d WAL records, want 4", replayed)
	}
	if db2.Schema("HighSS") != nil {
		t.Fatal("dropped relation came back after replay")
	}
	if got := db2.Stats("Kept"); got != wantStats {
		t.Fatalf("replayed MATERIALIZE stats %+v, want %+v", got, wantStats)
	}
}

// TestReplayRefusesUnnormalisedSetUncertain: the engine refuses or-set
// probabilities that do not sum to 1, on replay as live. A log holding such
// a SET UNCERTAIN record (which only an older build could have written)
// fails the restore with that error instead of installing the or-set.
func TestReplayRefusesUnnormalisedSetUncertain(t *testing.T) {
	dir := t.TempDir()
	db, err := sql.InitDir(dir, prepared(t))
	if err != nil {
		t.Fatal(err)
	}
	row := slices.IndexFunc(db.Snapshot().Rel("R").Cols[0], func(v int32) bool { return v != engine.Placeholder })
	attr := db.Schema("R")[0]
	if err := db.SetUncertain("R", row, attr, []int32{1, 2}, []float64{0.3, 0.3}); err == nil || !strings.Contains(err.Error(), "sum to 0.6") {
		t.Fatalf("live SET UNCERTAIN summing to 0.6: %v, want the engine's refusal", err)
	}
	db.Close()

	d, err := storage.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := &storage.WALRecord{Type: storage.RecSetUncertain, Rel: "R", Row: int32(row), Attr: attr, Values: []int32{1, 2}, Probs: []float64{0.3, 0.3}}
	if err := d.WAL().Append(rec); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, _, err := sql.Restore(dir); err == nil || !strings.Contains(err.Error(), "sum to 0.6") {
		t.Fatalf("restoring a log with an unnormalised SET UNCERTAIN: %v, want the engine's refusal", err)
	}
}

// TestCheckpointCompacts: after a checkpoint the log is empty and a restore
// replays nothing but still sees every commit.
func TestCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	db, err := sql.InitDir(dir, prepared(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("Q", "SELECT AGE FROM R WHERE AGE = 1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, replayed, err := sql.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if replayed != 0 {
		t.Fatalf("replayed %d records after checkpoint, want 0", replayed)
	}
	if db2.Schema("Q") == nil {
		t.Fatal("checkpointed MATERIALIZE result missing after restore")
	}
}

// TestChaseLogged: a chase on a durable DB is replayed on restore.
func TestChaseLogged(t *testing.T) {
	dir := t.TempDir()
	db, err := sql.InitDir(dir, prepared(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Chase("R", census.Dependencies(), engine.ChaseOptions{AssumeClean: true}); err != nil {
		t.Fatal(err)
	}
	want := db.Stats("R")
	db.Close()

	db2, replayed, err := sql.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if replayed != 1 {
		t.Fatalf("replayed %d records, want the 1 CHASE", replayed)
	}
	if got := db2.Stats("R"); got != want {
		t.Fatalf("chase replay stats %+v, want %+v", got, want)
	}
}

// TestChaseAtomic: a chase that filters the components of rows 0 and 2 and
// then meets a certain violator in row 3 fails as a whole — the store is
// exactly what it was, nothing is logged, the next commit goes through and a
// restart replays the acknowledged records only.
func TestChaseAtomic(t *testing.T) {
	dir := t.TempDir()
	db, err := sql.CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableSharding(2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.IngestCSV(writeCSV(t, "A,B\n1|2,5\n3,5|6\n2|4,5\n2,5\n"), "R"); err != nil {
		t.Fatal(err)
	}
	before, shardsBefore := sql.FlatState(db.Snapshot().ExportState()), shardFingerprints(t, db)
	err = db.Chase("R", []engine.EGD{{
		Premise:    []engine.Atom{{Attr: "A", Theta: relation.EQ, C: 2}},
		Conclusion: engine.Atom{Attr: "B", Theta: relation.NE, C: 5},
	}}, engine.ChaseOptions{})
	if !errors.Is(err, engine.ErrInconsistent) {
		t.Fatalf("Chase over a certain violator: %v, want ErrInconsistent", err)
	}
	if got := sql.FlatState(db.Snapshot().ExportState()); got != before {
		t.Fatalf("the failed chase left the store changed:\n%s\nwant:\n%s", got, before)
	}
	if got := shardFingerprints(t, db); !reflect.DeepEqual(got, shardsBefore) {
		t.Fatalf("the failed chase moved the shard set: %08x, want %08x", got, shardsBefore)
	}
	if err := db.SetUncertain("R", 3, "A", []int32{2, 3}, nil); err != nil {
		t.Fatalf("commit after the failed chase: %v", err)
	}
	want := db.Snapshot().ExportState()
	db.Close()

	db2, replayed, err := sql.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if replayed != 2 {
		t.Fatalf("replayed %d records, want the LOAD CSV and the SET UNCERTAIN", replayed)
	}
	if got := db2.Snapshot().ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed store state differs from the live one:\n%s\nwant:\n%s", sql.FlatState(got), sql.FlatState(want))
	}
}

// TestLiveVsReplayAllRecordTypes: a scripted session commits every record
// type on a 2-shard durable DB — with refused commits in between, which must
// leave no trace — and a restart must rebuild it exactly: replay runs the same
// apply the session did, so the flat store state, the shard partition and the
// record count all match what was acknowledged.
func TestLiveVsReplayAllRecordTypes(t *testing.T) {
	dir := t.TempDir()
	db, err := sql.CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableSharding(2, 0); err != nil {
		t.Fatal(err)
	}
	acked := 0
	commit := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		acked++
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s was acknowledged", what)
		}
	}
	_, err = db.IngestCSV(writeCSV(t, bootCSV), "R")
	commit("LOAD CSV", err)
	commit("SET UNCERTAIN", db.SetUncertain("R", 3, "AGE", []int32{9, 4}, []float64{0.75, 0.25}))
	refused("SET UNCERTAIN on an uncertain field", db.SetUncertain("R", 3, "AGE", []int32{1}, nil))
	commit("CHASE", db.Chase("R", []engine.EGD{{
		Premise:    []engine.Atom{{Attr: "SEX", Theta: relation.EQ, C: 2}},
		Conclusion: engine.Atom{Attr: "AGE", Theta: relation.NE, C: 7},
	}}, engine.ChaseOptions{}))
	_, err = db.Materialize("Q", "SELECT AGE, SEX FROM R WHERE YEARSCH = ?", 17)
	commit("MATERIALIZE", err)
	_, err = db.Materialize("Q", "SELECT AGE FROM R")
	refused("MATERIALIZE over an existing name", err)
	commit("RENAME", db.RenameRelation("Q", "Kept"))
	refused("RENAME of a missing relation", db.RenameRelation("Q", "Other"))
	_, err = db.Materialize("Tmp", "SELECT SEX FROM Kept WHERE AGE = 5")
	commit("MATERIALIZE", err)
	commit("DROP", db.DropRelation("Tmp"))
	refused("DROP of a missing relation", db.DropRelation("Tmp"))
	// Each DROP frees a slot the next new relation takes: Tmp's slot 2
	// first, then Kept's slot 1, below the live Tmp, then Tmp's slot 2 again
	// for a LOAD CSV, whose components are rewritten to the reused id.
	_, err = db.Materialize("Tmp", "SELECT SEX FROM Kept WHERE AGE = 5")
	commit("MATERIALIZE into the dropped slot", err)
	commit("DROP", db.DropRelation("Kept"))
	_, err = db.Materialize("Again", "SELECT SEX FROM Tmp WHERE SEX = 2")
	commit("MATERIALIZE into the lower dropped slot", err)
	commit("DROP", db.DropRelation("Tmp"))
	_, err = db.IngestCSV(writeCSV(t, bootCSV), "L")
	commit("LOAD CSV into the dropped slot", err)
	sn := db.Snapshot()
	if a, l := sn.RelByID(1), sn.RelByID(2); a == nil || a.Name != "Again" || l == nil || l.Name != "L" || sn.NumRelSlots() != 3 {
		t.Fatalf("slots 1 and 2 hold %v and %v of %d slots, want Again and L of 3", a, l, sn.NumRelSlots())
	}
	if err := db.ValidateShards(); err != nil {
		t.Fatal(err)
	}
	wantState := db.Snapshot().ExportState()
	wantShards := shardFingerprints(t, db)
	// Close without Checkpoint: the directory holds only the log.
	db.Close()

	db2, replayed, err := sql.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if replayed != acked {
		t.Fatalf("replayed %d records, want the %d acknowledged commits", replayed, acked)
	}
	if got := db2.Snapshot().ExportState(); !reflect.DeepEqual(got, wantState) {
		t.Fatalf("replayed store state differs from the live one:\n%+v\nwant:\n%+v", got, wantState)
	}
	if err := db2.EnableSharding(2, 0); err != nil {
		t.Fatal(err)
	}
	if got := shardFingerprints(t, db2); len(got) != 2 || !reflect.DeepEqual(got, wantShards) {
		t.Fatalf("shard fingerprints after replay %08x, live (derived from the boot set across every commit) %08x", got, wantShards)
	}
}

// TestLiveVsReplayNoisyCensus: MATERIALIZE of Figure 29's Q2 and Q3 on a
// noisy census store — density 0.02, where the operators compose components
// for many rows — replays to the live state byte for byte. The component ids
// the arena hands out, and so the store ids Commit assigns, follow the order
// the operators visit rows: the uncertainty index's row order, where it used
// to be map order.
func TestLiveVsReplayNoisyCensus(t *testing.T) {
	store, err := census.NewStore("R", 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := census.AddNoise(store, "R", 0.02, 4); err != nil {
		t.Fatal(err)
	}
	// A dropped slot below a live relation before the log starts: the
	// snapshot keeps it nil, and the first MATERIALIZE refills it, live and
	// in replay alike.
	for _, name := range []string{"x", "y"} {
		if _, err := store.AddRelation(name, []string{"A"}, [][]int32{{1}}); err != nil {
			t.Fatal(err)
		}
	}
	store.DropRelation("x")
	dir := t.TempDir()
	db, err := sql.InitDir(dir, store)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableSharding(2, 0); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"Q2", "Q3"} {
		if _, err := db.Materialize(strings.ToLower(q), census.SQL[q]); err != nil {
			t.Fatalf("MATERIALIZE %s: %v", q, err)
		}
	}
	if r := db.Snapshot().RelByID(1); r == nil || r.Name != "q2" {
		t.Fatalf("slot 1 holds %v, want q2 in the slot x left", r)
	}
	want := sql.FlatState(db.Snapshot().ExportState())
	wantShards := shardFingerprints(t, db)
	db.Close() // no Checkpoint: the two commits live only in the log

	db2, replayed, err := sql.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if replayed != 2 {
		t.Fatalf("replayed %d records, want the 2 MATERIALIZEs", replayed)
	}
	if got := sql.FlatState(db2.Snapshot().ExportState()); got != want {
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("replayed state differs from the live one at line %d:\n%.300s\nwant:\n%.300s", i, g[i], w[i])
			}
		}
		t.Fatalf("replayed state has %d lines, live %d", len(g), len(w))
	}
	if err := db2.EnableSharding(2, 0); err != nil {
		t.Fatal(err)
	}
	if got := shardFingerprints(t, db2); !reflect.DeepEqual(got, wantShards) {
		t.Fatalf("shard fingerprints after replay %08x, live %08x", got, wantShards)
	}
}

// TestWireCommitLogFailure: no wire opcode acknowledges a commit the log did
// not capture. With the log dead, MATERIALIZE and DROP both answer the same
// typed error frame instead of MATERIALIZED / OK, and a restart rebuilds what
// was acknowledged — the relation the refused DROP named is still there.
func TestWireCommitLogFailure(t *testing.T) {
	dir := t.TempDir()
	db, err := sql.InitDir(dir, prepared(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("Q", "SELECT AGE FROM R WHERE AGE = 1"); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{Logf: func(string, ...any) {}})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := sql.KillLog(db); err != nil {
		t.Fatal(err)
	}
	wireCode := func(what string, err error) uint16 {
		t.Helper()
		var werr *server.WireError
		if !errors.As(err, &werr) {
			t.Fatalf("%s with a dead log: got %v, want an error frame", what, err)
		}
		return werr.Code
	}
	_, err = c.Materialize("Q2", "SELECT AGE FROM R WHERE AGE = 2")
	want := wireCode("MATERIALIZE", err)
	if got := wireCode("DROP", c.DropRelation("Q")); got != want {
		t.Fatalf("DROP with a dead log answered wire code %d, MATERIALIZE %d", got, want)
	}
	c.Close()
	srv.Close()
	db.Close()

	db2, replayed, err := sql.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if replayed != 1 || db2.Schema("Q") == nil || db2.Schema("Q2") != nil {
		t.Fatalf("restart replayed %d records to catalog %v, want the 1 acknowledged MATERIALIZE of Q", replayed, db2.Relations())
	}
}

// TestInMemoryHooksAreFree: a plain Open-ed DB has no directory; Checkpoint
// refuses, and commits work without logging.
func TestInMemoryHooksAreFree(t *testing.T) {
	db := sql.Open(prepared(t))
	defer db.Close()
	if db.DataDir() != "" {
		t.Fatalf("in-memory DataDir = %q", db.DataDir())
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on an in-memory DB succeeded")
	}
	if _, err := db.Materialize("Q", "SELECT AGE FROM R WHERE AGE = 1"); err != nil {
		t.Fatal(err)
	}
	db.DropRelation("Q")
}

// TestRestoreQueryEquivalence: the restored DB must answer queries exactly
// like the one that wrote the directory.
func TestRestoreQueryEquivalence(t *testing.T) {
	dir := t.TempDir()
	db, err := sql.InitDir(dir, prepared(t))
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT CONF() FROM R WHERE YEARSCH = 17"
	want := confLines(t, db, q)
	db.Close()

	db2, _, err := sql.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got := confLines(t, db2, q)
	if len(got) != len(want) {
		t.Fatalf("%d result rows after restore, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: %q after restore, want %q", i, got[i], want[i])
		}
	}
}

func confLines(t *testing.T, db *sql.DB, q string) []string {
	t.Helper()
	rows, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	vals := make([]relation.Value, len(rows.Columns()))
	ptrs := make([]any, len(vals))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	var out []string
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%v conf=%.12g", vals, rows.Conf()))
	}
	sort.Strings(out)
	return out
}

// shardFingerprints returns db's per-shard fingerprints.
func shardFingerprints(t *testing.T, db *sql.DB) []uint32 {
	t.Helper()
	fps, err := db.ShardFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	return fps
}
