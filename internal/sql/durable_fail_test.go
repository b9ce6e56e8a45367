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

// faultyDurableDB is durableDB over a FaultFS.
func faultyDurableDB(t *testing.T) (*DB, *storage.FaultFS, string) {
	t.Helper()
	ffs := storage.NewFaultFS(nil)
	db, dir := durableDB(t, ffs)
	return db, ffs, dir
}

// durableDB is InitDir over fsys: a two-relation store with one or-set,
// snapshotted, every further commit logged through fsys.
func durableDB(t *testing.T, fsys storage.FS) (*DB, string) {
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
	d, err := storage.OpenDirFS(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	db := Open(st)
	db.dur = d
	t.Cleanup(func() { db.Close() })
	return db, dir
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
	for _, tc := range commitCases(t) {
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
			wantState, wantShards := db.Snapshot().ExportState(), shardFingerprints(t, db)
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
			if got := shardFingerprints(t, db2); !reflect.DeepEqual(got, wantShards) {
				t.Fatalf("shard fingerprints after restart %08x, live %08x", got, wantShards)
			}
		})
	}
}

// syncHookFS runs onSync, when set, at the start of every File.Sync — before
// the wrapped file syncs, or fails to.
type syncHookFS struct {
	storage.FS
	onSync func()
}

func (f *syncHookFS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	return f.wrap(f.FS.OpenFile(name, flag, perm))
}
func (f *syncHookFS) Open(name string) (storage.File, error) { return f.wrap(f.FS.Open(name)) }
func (f *syncHookFS) CreateTemp(dir, pattern string) (storage.File, error) {
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}

func (f *syncHookFS) wrap(file storage.File, err error) (storage.File, error) {
	if err != nil {
		return nil, err
	}
	return syncHookFile{file, f}, nil
}

type syncHookFile struct {
	storage.File
	fs *syncHookFS
}

func (h syncHookFile) Sync() error {
	if h.fs.onSync != nil {
		h.fs.onSync()
	}
	return h.File.Sync()
}

// TestReadersSeeOnlyLoggedCommits: a reader never sees a commit the log has
// not captured. The log's fsync fails under one commit of each record type;
// at every fsync of that commit — applied, not yet logged — a reader takes
// the DB's snapshot, its relation list and a query answer, and all three
// must still be the pre-commit state, unsharded and on two shards.
func TestReadersSeeOnlyLoggedCommits(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, tc := range commitCases(t) {
			t.Run(fmt.Sprintf("%s/%d_shards", tc.name, shards), func(t *testing.T) {
				ffs := storage.NewFaultFS(nil)
				hook := &syncHookFS{FS: ffs}
				db, _ := durableDB(t, hook)
				if err := db.EnableSharding(shards, 0); err != nil {
					t.Fatal(err)
				}
				observe := func() string {
					answer := ""
					if rows, err := db.Query("SELECT CONF() FROM R"); err != nil {
						answer = err.Error()
					} else {
						answer = strings.Join(modeTable(t, rows), "\n")
					}
					return fmt.Sprintf("%s%v\n%s", FlatState(db.Snapshot().ExportState()), db.Relations(), answer)
				}
				before := observe()
				var seen []string
				hook.onSync = func() { seen = append(seen, observe()) }
				ffs.FailAt(storage.OpSync, 1, nil)
				if err := tc.commit(db); err == nil {
					t.Fatalf("%s acknowledged a commit the log did not capture", tc.name)
				}
				hook.onSync = nil
				if len(seen) == 0 {
					t.Fatalf("%s never reached the log's fsync", tc.name)
				}
				for _, got := range seen {
					if got != before {
						t.Fatalf("a reader during the failing %s saw:\n%s\nwant the pre-commit state:\n%s", tc.name, got, before)
					}
				}
			})
		}
	}
}

// commitCases is one commit of each record type against faultyDurableDB's
// store.
func commitCases(t *testing.T) []struct {
	name   string
	commit func(db *DB) error
} {
	csvPath := filepath.Join(t.TempDir(), "l.csv")
	if err := os.WriteFile(csvPath, []byte("X,Y\n1,2|3\n4,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return []struct {
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
}

// shardFingerprints returns db's per-shard fingerprints.
func shardFingerprints(t *testing.T, db *DB) []uint32 {
	t.Helper()
	fps, err := db.ShardFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	return fps
}
