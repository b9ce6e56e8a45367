package sql

import (
	"context"
	"errors"
	"fmt"
	"os"

	"maybms/internal/engine"
	"maybms/internal/storage"
)

// Durable directories: a DB opened through Restore, InitDir or CreateDir is
// backed by a storage.Dir — commit (commit.go) appends every catalog change
// to the directory's write-ahead log before it returns, and Checkpoint
// compacts the log into a fresh snapshot. A DB opened through plain Open has
// no directory and logs nothing. Replay applies the logged records to the
// restored store with the same apply that wrote them; the Dir is attached to
// the DB only afterwards.

// Restore opens the durable store in dir: the newest snapshot is loaded,
// the write-ahead log is replayed over it, and the returned DB logs every
// further commit to the directory. The second result
// is the number of WAL records replayed. A directory with no snapshot
// returns storage.ErrNoSnapshot (wrapped); build a store and call InitDir.
func Restore(dir string) (*DB, int, error) {
	d, err := storage.OpenDir(dir)
	if err != nil {
		return nil, 0, err
	}
	st, err := d.LoadLatest()
	if err != nil {
		if errors.Is(err, storage.ErrNoSnapshot) {
			// WAL-only boot: a directory that has logged commits (a durable
			// CSV ingest through CreateDir, say) but never checkpointed
			// restores from the generation-0 log alone. A fresh directory
			// (empty log) still reports ErrNoSnapshot, so the InitDir
			// bootstrap path of existing callers is unchanged.
			db := Open(engine.NewStore())
			n, rerr := db.replayWAL(d)
			if rerr != nil {
				d.Close()
				db.Close()
				return nil, 0, rerr
			}
			if n > 0 {
				db.dur = d
				return db, n, nil
			}
			db.Close()
		}
		d.Close()
		return nil, 0, err
	}
	db := Open(st)
	n, err := db.replayWAL(d)
	if err != nil {
		d.Close()
		db.Close()
		return nil, 0, err
	}
	db.dur = d
	return db, n, nil
}

// InitDir makes st durable in dir: the store is written as the directory's
// first snapshot and the returned DB logs every further commit there. Use
// it when Restore reports storage.ErrNoSnapshot.
func InitDir(dir string, st *engine.Store) (*DB, error) {
	d, err := storage.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	if err := d.Checkpoint(st); err != nil {
		d.Close()
		return nil, err
	}
	db := Open(st)
	db.dur = d
	return db, nil
}

// CreateDir opens a fresh durable directory and binds an empty store to it:
// every commit — including bulk CSV ingests and chases — is logged from the
// first record, so the session is durable before any snapshot exists
// (Restore replays the log over an empty store). A directory that already
// holds a snapshot or logged commits is refused; use Restore for those.
func CreateDir(dir string) (*DB, error) {
	d, err := storage.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	if _, err := d.LoadLatest(); err == nil {
		d.Close()
		return nil, fmt.Errorf("sql: CreateDir: %s already holds a snapshot; use Restore", dir)
	} else if !errors.Is(err, storage.ErrNoSnapshot) {
		d.Close()
		return nil, err
	}
	db := Open(engine.NewStore())
	n, err := db.replayWAL(d)
	if err != nil {
		d.Close()
		db.Close()
		return nil, err
	}
	if n > 0 {
		d.Close()
		db.Close()
		return nil, fmt.Errorf("sql: CreateDir: %s already holds %d logged commits; use Restore", dir, n)
	}
	db.dur = d
	return db, nil
}

// Snapshot returns the DB's published snapshot: the last committed state,
// the one every reader sees. It makes a DB a storage.Snapshotable:
// storage.Save(db, w) serializes that state without blocking readers or
// writers.
func (db *DB) Snapshot() *engine.Snapshot { return db.view.Load().snap }

// DataDir returns the DB's durable directory path, or "" for an in-memory
// session.
func (db *DB) DataDir() string {
	if db.dur == nil {
		return ""
	}
	return db.dur.Path()
}

// Checkpoint writes the store's current state as a fresh snapshot and
// truncates the write-ahead log (storage.Dir.Checkpoint). It serializes
// with catalog writers, so the snapshot is a committed state.
func (db *DB) Checkpoint() error {
	db.writer.Lock()
	defer db.writer.Unlock()
	if db.dur == nil {
		return fmt.Errorf("sql: Checkpoint on an in-memory DB (open with Restore or InitDir)")
	}
	return db.dur.Checkpoint(db.store)
}

// replayWAL applies the directory's log to the DB's store, record by
// record, and returns how many it applied. Nothing is logged: replay calls
// apply, not commit. No reader exists yet, so the state is published only
// where apply reads it — before a MATERIALIZE, which compiles against the
// published view — and once at the end; a snapshot per record would start a
// store epoch per record and make every next mutation copy the catalog.
func (db *DB) replayWAL(d *storage.Dir) (int, error) {
	f, err := os.Open(d.WALPath())
	if err != nil {
		return 0, fmt.Errorf("sql: opening WAL for replay: %w", err)
	}
	defer f.Close()
	db.writer.Lock()
	defer db.writer.Unlock()
	n, err := storage.ReplayWAL(f, func(rec *storage.WALRecord) error {
		if rec.Type == storage.RecMaterialize {
			db.publish()
		}
		_, err := db.apply(context.Background(), rec)
		return err
	})
	if err == nil && n > 0 {
		db.publish()
	}
	return n, err
}
