package sql

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maybms/internal/engine"
	"maybms/internal/storage"
)

// These tests are internal to the package so they can put a fault-injecting
// filesystem under a live session (db.dur) and observe db.durErr.

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
// type. No type may acknowledge the commit. A type with an inverse leaves the
// store exactly as logged, and the next commit goes through and replays; a
// type without one marks the DB diverged — Checkpoint and the next commit are
// refused — and a restart returns to the logged state.
func TestCommitLogFailure(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "l.csv")
	if err := os.WriteFile(csvPath, []byte("X,Y\n1,2|3\n4,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		commit func(db *DB) error
		undone bool
	}{
		{"MATERIALIZE", func(db *DB) error { _, err := db.Materialize("Q", "SELECT A FROM R WHERE B = 5"); return err }, true},
		{"LOAD CSV", func(db *DB) error { _, err := db.IngestCSV(csvPath, "L"); return err }, true},
		{"RENAME", func(db *DB) error { return db.RenameRelation("R", "S") }, true},
		{"DROP", func(db *DB) error { return db.DropRelation("T") }, false},
		{"CHASE", func(db *DB) error { return db.Chase("R", nil, engine.ChaseOptions{}) }, false},
		{"SET UNCERTAIN", func(db *DB) error { return db.SetUncertain("R", 0, "A", []int32{1, 2}, nil) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, ffs, dir := faultyDurableDB(t)
			logged := logicalState(t, db)
			ffs.FailAt(storage.OpSync, 1, nil)
			if err := tc.commit(db); err == nil {
				t.Fatalf("%s acknowledged a commit the log did not capture", tc.name)
			}
			want, wantReplayed := logged, 0
			if tc.undone {
				if db.durErr != nil {
					t.Fatalf("undone %s still recorded a divergence: %v", tc.name, db.durErr)
				}
				if got := logicalState(t, db); got != logged {
					t.Fatalf("failed %s left the store changed:\n%s\nwant:\n%s", tc.name, got, logged)
				}
				// The log's tail is clean: the next commit is logged and
				// replays.
				if _, err := db.Materialize("Next", "SELECT C FROM T"); err != nil {
					t.Fatalf("commit after an undone %s: %v", tc.name, err)
				}
				want, wantReplayed = logicalState(t, db), 1
			} else {
				if db.durErr == nil {
					t.Fatalf("unlogged %s was not recorded as a divergence", tc.name)
				}
				if err := db.Checkpoint(); err == nil {
					t.Fatalf("Checkpoint compacted a log that is missing a %s", tc.name)
				}
				if _, err := db.Materialize("Next", "SELECT C FROM T"); err == nil || !strings.Contains(err.Error(), "diverged") {
					t.Fatalf("commit on a diverged DB: got %v, want a refusal", err)
				}
			}
			db.Close()
			// A restart returns to what the log captured: for a diverged DB
			// that is the state before the commit its caller was told failed.
			db2, replayed, err := Restore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if replayed != wantReplayed {
				t.Fatalf("replayed %d records, want %d", replayed, wantReplayed)
			}
			if got := logicalState(t, db2); got != want {
				t.Fatalf("restored state:\n%s\nwant the acknowledged state:\n%s", got, want)
			}
		})
	}
}
