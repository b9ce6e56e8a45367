package sql

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/storage"
)

// These tests are internal to the package so they can put a fault-injecting
// filesystem under a live session (db.dur).

// faultyDurableDB is InitDir over a FaultFS: a two-relation store with one
// or-set, snapshotted, every further commit logged through ffs.
func faultyDurableDB(t *testing.T) (*DB, *storage.FaultFS, string) {
	t.Helper()
	st := engine.NewStore()
	if _, err := st.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 2, 3}, {4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	if err := st.SetUncertain("R", 1, "B", []int32{5, 7}, []float64{0.25, 0.75}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddRelation("T", []string{"C"}, [][]int32{{8, 9}}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ffs := storage.NewFaultFS(nil)
	d, err := storage.OpenDirFS(ffs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	db := Open(st)
	db.dur = d
	t.Cleanup(func() { db.Close() })
	return db, ffs, dir
}

// logicalState renders everything a client can observe of the catalog: per
// relation its schema, statistics, placeholder count and full confidence
// table.
func logicalState(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	for _, rel := range db.Relations() {
		fmt.Fprintf(&b, "%s%v %+v ph=%d\n", rel, db.Schema(rel), db.Stats(rel), db.Placeholders(rel))
		rows := mustQuery(t, db, "SELECT CONF() FROM "+rel)
		for _, line := range modeTable(t, rows) {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		rows.Close()
	}
	return b.String()
}

// TestCommitLogFailure kills the log's fsync under one commit of each record
// type on a 2-shard DB. No type may acknowledge the commit, and every type
// is rolled back: the store is exactly as logged, Checkpoint and the next
// commit go through, and the live store — flat state and shard fingerprints —
// is byte-for-byte the one a restart replays.
func TestCommitLogFailure(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "l.csv")
	if err := os.WriteFile(csvPath, []byte("X,Y\n1,2|3\n4,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		commit func(db *DB) error
	}{
		{"MATERIALIZE", func(db *DB) error { _, err := db.Materialize("Q", "SELECT A FROM R WHERE B = 5"); return err }},
		{"LOAD CSV", func(db *DB) error { _, err := db.IngestCSV(csvPath, "L"); return err }},
		{"RENAME", func(db *DB) error { return db.RenameRelation("R", "S") }},
		{"DROP", func(db *DB) error { return db.DropRelation("T") }},
		{"CHASE", func(db *DB) error {
			return db.Chase("R", []engine.EGD{{
				Premise:    []engine.Atom{{Attr: "A", Theta: relation.EQ, C: 2}},
				Conclusion: engine.Atom{Attr: "B", Theta: relation.NE, C: 7},
			}}, engine.ChaseOptions{})
		}},
		{"SET UNCERTAIN", func(db *DB) error { return db.SetUncertain("R", 0, "A", []int32{1, 2}, nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, ffs, dir := faultyDurableDB(t)
			if err := db.EnableSharding(2, 0); err != nil {
				t.Fatal(err)
			}
			logged := logicalState(t, db)
			loggedState := FlatState(db.Snapshot().ExportState())
			ffs.FailAt(storage.OpSync, 1, nil)
			if err := tc.commit(db); err == nil {
				t.Fatalf("%s acknowledged a commit the log did not capture", tc.name)
			}
			if got := logicalState(t, db); got != logged {
				t.Fatalf("failed %s left the store changed:\n%s\nwant:\n%s", tc.name, got, logged)
			}
			if got := FlatState(db.Snapshot().ExportState()); got != loggedState {
				t.Fatalf("failed %s left the flat state changed:\n%s\nwant:\n%s", tc.name, got, loggedState)
			}
			// Nothing is owed to the log: it compacts, and its tail is clean —
			// the next commit is logged and replays.
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint after a rolled-back %s: %v", tc.name, err)
			}
			if _, err := db.Materialize("Next", "SELECT C FROM T"); err != nil {
				t.Fatalf("commit after a rolled-back %s: %v", tc.name, err)
			}
			wantState, wantShards := db.Snapshot().ExportState(), db.ShardFingerprints()
			db.Close()

			db2, replayed, err := Restore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if replayed != 1 {
				t.Fatalf("replayed %d records, want the 1 acknowledged", replayed)
			}
			if got := db2.Snapshot().ExportState(); !reflect.DeepEqual(got, wantState) {
				t.Fatalf("restored state:\n%+v\nwant the live one:\n%+v", got, wantState)
			}
			if err := db2.EnableSharding(2, 0); err != nil {
				t.Fatal(err)
			}
			if got := db2.ShardFingerprints(); !reflect.DeepEqual(got, wantShards) {
				t.Fatalf("shard fingerprints after restart %08x, live %08x", got, wantShards)
			}
		})
	}
}
