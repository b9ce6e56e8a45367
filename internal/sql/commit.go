package sql

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"maybms/internal/engine"
	"maybms/internal/shard"
	"maybms/internal/storage"
)

// The commit protocol. A catalog change is a storage.WALRecord: each of the
// six mutators below builds one and hands it to commit, and WAL replay
// (durable.go) hands the records it reads to the same apply — so the store a
// restart rebuilds is produced by the code that produced the live one. The
// README's "Commit protocol" table has one row per record type.

// applied is what apply hands back to the mutator that built the record.
type applied struct {
	result *Result          // MATERIALIZE: the installed result
	loaded storage.LoadInfo // LOAD CSV: what the file held
}

// view is one published read state: the snapshot of a committed store state
// and, on a sharded DB, the shard set of that snapshot. A view never changes
// what it answers. Readers load the DB's current one and read only it, so a
// query, an EXPLAIN or a CATALOG reply sees one state whatever commits land
// meanwhile.
//
// The shard set is derived on first use, not by the commit: from is the
// newest set built at or before snap (nil when sharding is off), and
// shardSet re-balances it to snap once. A set is a pure function of the
// state it was built from, so Next from any older set equals a fresh build,
// and the states no reader asked a set of are never built.
type view struct {
	snap *engine.Snapshot
	from *shard.Set
	once sync.Once
	set  atomic.Pointer[shard.Set] // snap's own set, once built
	err  error                     // why it could not be built; set by once
}

// deriveShardSet re-balances a shard set to a snapshot; tests replace it
// to make a derivation fail.
var deriveShardSet = (*shard.Set).Next

// shardSet returns the view's shard set (nil when sharding is off),
// deriving it from v.from on the first call; every caller gets the one
// result, error included.
func (v *view) shardSet() (*shard.Set, error) {
	if sh := v.set.Load(); sh != nil || v.from == nil {
		return sh, nil
	}
	v.once.Do(func() {
		sh, err := deriveShardSet(v.from, v.snap)
		if err != nil {
			v.err = fmt.Errorf("sql: re-balancing the shard set: %w", err)
			return
		}
		v.set.Store(sh)
	})
	return v.set.Load(), v.err
}

// newest returns the newest shard set built at or before v's state: v's own
// once built, else the one v would derive it from.
func (v *view) newest() *shard.Set {
	if sh := v.set.Load(); sh != nil {
		return sh
	}
	return v.from
}

// publish makes the live store's current state the one readers see; its
// shard set derives on first use from the newest set built so far. Callers
// hold db.writer (or own the DB alone, as Open does).
func (db *DB) publish() {
	v := &view{snap: db.store.Snapshot()}
	if pub := db.view.Load(); pub != nil {
		v.from = pub.newest()
	}
	db.view.Store(v)
}

// commit is the one path by which a live session changes the catalog:
// writer lock, apply the record to the live store, append the record to the
// log (the append fsyncs), and only then publish. Readers keep the previous
// view until that last step, so none of them sees a change the log has not
// captured. Any failure — apply or append — rolls the live store back to
// the published snapshot and publishes nothing, so the live store is always
// the one a restart would replay. An in-memory DB has no log. The shard set
// is not touched here: the first mode query on the new view derives it.
func (db *DB) commit(ctx context.Context, rec *storage.WALRecord) (applied, error) {
	db.writer.Lock()
	defer db.writer.Unlock()
	out, err := db.apply(ctx, rec)
	if err == nil && db.dur != nil {
		if err = db.dur.WAL().Append(rec); err != nil {
			err = fmt.Errorf("sql: logging %s: %w", describe(rec), err)
		}
	}
	if err != nil {
		db.store.Rollback(db.view.Load().snap)
		return applied{}, err
	}
	db.publish()
	return out, nil
}

// apply performs one record's store mutation; callers hold db.writer, and
// the live store is the published one when it starts. It is the whole
// difference between two consecutive committed states, live and on replay
// alike, and it never touches the log or the shard set. An error means the
// record is not committed; commit rolls back whatever it changed.
func (db *DB) apply(ctx context.Context, rec *storage.WALRecord) (out applied, err error) {
	switch rec.Type {
	case storage.RecMaterialize:
		out.result, err = db.materialize(ctx, rec)
	case storage.RecDrop:
		if db.store.Rel(rec.Name) == nil {
			return out, fmt.Errorf("sql: DROP: unknown relation %q", rec.Name)
		}
		db.store.DropRelation(rec.Name)
	case storage.RecRename:
		err = db.store.RenameRelation(rec.Name, rec.NewName)
	case storage.RecChase:
		err = db.store.ChaseEGDsOpt(rec.Rel, rec.Deps, engine.ChaseOptions{
			AssumeClean: rec.AssumeClean,
			Refined:     rec.Refined,
		})
	case storage.RecSetUncertain:
		err = db.store.SetUncertain(rec.Rel, int(rec.Row), rec.Attr, rec.Values, rec.Probs)
	case storage.RecLoadCSV:
		out.loaded, err = db.loadCSV(rec)
	default:
		err = fmt.Errorf("sql: unknown WAL record type %d", rec.Type)
	}
	return out, err
}

// describe names a record in error messages.
func describe(rec *storage.WALRecord) string {
	switch rec.Type {
	case storage.RecMaterialize:
		return "MATERIALIZE " + rec.Res
	case storage.RecDrop:
		return "DROP " + rec.Name
	case storage.RecRename:
		return "RENAME " + rec.Name + " TO " + rec.NewName
	case storage.RecChase:
		return "CHASE " + rec.Rel
	case storage.RecSetUncertain:
		return "SET UNCERTAIN " + rec.Rel
	case storage.RecLoadCSV:
		return "LOAD CSV " + rec.Path
	}
	return fmt.Sprintf("record type %d", rec.Type)
}

// materialize is apply's MATERIALIZE arm: the statement runs on a snapshot +
// arena like any query, and only the arena's final commit writes the store
// (copy-on-write, so concurrent readers on older snapshots are unaffected).
// Replay re-runs the logged statement and reproduces the original state
// byte for byte: the operators visit rows in the order of each relation's
// uncertainty index, never map order, so the components they compose and
// the ids Commit assigns repeat — TestLiveVsReplayNoisyCensus checks it on
// a noisy census store, where many rows compose.
func (db *DB) materialize(ctx context.Context, rec *storage.WALRecord) (*Result, error) {
	stmt, err := db.Prepare(rec.Query)
	if err != nil {
		return nil, err
	}
	if stmt.st.Mode != ModePlain {
		return nil, fmt.Errorf("sql: Materialize requires a plain query (no CONF()/POSSIBLE/CERTAIN)")
	}
	if TestHookExec != nil {
		TestHookExec(rec.Query)
	}
	v, tpl, err := db.templateFor(stmt)
	if err != nil {
		return nil, err
	}
	if v.snap.Rel(rec.Res) != nil {
		return nil, fmt.Errorf("sql: result relation %q already exists in the store (drop it first or pick another name)", rec.Res)
	}
	// A plain plan runs on the authority, where the commit below lands.
	out, err := execute(ctx, []*engine.Snapshot{v.snap}, 1, tpl, rec.Args)
	if err != nil {
		return nil, err
	}
	ar := out.arena
	out.arena, out.out = nil, nil
	defer engine.ReleaseArena(ar)
	if err := ar.RenameRelation(out.Relation, rec.Res); err != nil {
		return nil, fmt.Errorf("sql: installing result: %w", err)
	}
	out.Relation = rec.Res
	if err := ar.Commit(); err != nil {
		return nil, fmt.Errorf("sql: installing result: %w", err)
	}
	return out, nil
}

// loadCSV is apply's LOAD CSV arm. The record stands for the file: a record
// read back from the log carries the file's CRC32 and row count, and a file
// that no longer matches is refused rather than trusted to rebuild the store
// the log continued from; a record fresh from IngestCSV carries neither yet
// (a load never has zero rows) and is stamped with what was read.
func (db *DB) loadCSV(rec *storage.WALRecord) (storage.LoadInfo, error) {
	f, err := os.Open(rec.Path)
	if err != nil {
		return storage.LoadInfo{}, fmt.Errorf("sql: ingest: %w", err)
	}
	defer f.Close()
	sum := crc32.NewIEEE()
	rs, comps, info, err := storage.LoadCSVState(io.TeeReader(f, sum), rec.Path, rec.Rel)
	if err != nil {
		return storage.LoadInfo{}, err
	}
	if rec.Rows == 0 {
		rec.Sum, rec.Rows = sum.Sum32(), int64(info.Rows)
	} else if sum.Sum32() != rec.Sum || int64(info.Rows) != rec.Rows {
		return storage.LoadInfo{}, fmt.Errorf(
			"sql: LOAD CSV %s: file changed since it was logged (checksum %08x/%d rows, logged %08x/%d); restore the original file or checkpoint-and-drop the relation",
			rec.Path, sum.Sum32(), info.Rows, rec.Sum, rec.Rows)
	}
	return info, db.store.InstallRelation(rs, comps)
}

// Materialize executes a plain statement and installs its result relation
// under res in the store's user namespace, for workloads that feed one
// query's result into the FROM clause of the next. The caller owns dropping
// res. A clear error is returned if res already exists.
func (db *DB) Materialize(res, query string, args ...any) (*Result, error) {
	return db.MaterializeContext(context.Background(), res, query, args...)
}

// MaterializeContext is Materialize honoring ctx: cancellation or deadline
// expiry stops the execution at its next engine checkpoint, before anything
// is committed or logged, and releases the writer lock and the arena. The
// returned error chains engine.ErrCanceled and the context's own error.
func (db *DB) MaterializeContext(ctx context.Context, res, query string, args ...any) (*Result, error) {
	vals, err := valuesOf(args)
	if err != nil {
		return nil, err
	}
	out, err := db.commit(ctx, &storage.WALRecord{Type: storage.RecMaterialize, Res: res, Query: query, Args: vals})
	return out.result, err
}

// DropRelation removes a user relation from the store. Components are
// trimmed copy-on-write, so queries running on older snapshots are
// unaffected.
func (db *DB) DropRelation(rel string) error {
	_, err := db.commit(context.Background(), &storage.WALRecord{Type: storage.RecDrop, Name: rel})
	return err
}

// RenameRelation renames a relation in the store's catalog.
func (db *DB) RenameRelation(old, new string) error {
	_, err := db.commit(context.Background(), &storage.WALRecord{Type: storage.RecRename, Name: old, NewName: new})
	return err
}

// Chase runs the engine's chase over rel under the given dependencies; on a
// durable DB a restart replays the cleaning instead of losing it.
func (db *DB) Chase(rel string, deps []engine.EGD, opts engine.ChaseOptions) error {
	_, err := db.commit(context.Background(), &storage.WALRecord{
		Type:        storage.RecChase,
		Rel:         rel,
		Deps:        deps,
		AssumeClean: opts.AssumeClean,
		Refined:     opts.Refined,
	})
	return err
}

// SetUncertain replaces the field (rel, row, attr) by an or-set of values
// with probabilities (nil probs = uniform).
func (db *DB) SetUncertain(rel string, row int, attr string, values []int32, probs []float64) error {
	_, err := db.commit(context.Background(), &storage.WALRecord{
		Type:   storage.RecSetUncertain,
		Rel:    rel,
		Row:    int32(row),
		Attr:   attr,
		Values: values,
		Probs:  probs,
	})
	return err
}

// IngestCSV bulk-loads a CSV file as a new relation rel. The commit is a
// single LOAD CSV record carrying the file's CRC32 and row count — the log
// stays O(1) in the data size — so on a durable DB the file must outlive the
// log (until the next Checkpoint captures the loaded state in a snapshot).
func (db *DB) IngestCSV(path, rel string) (storage.LoadInfo, error) {
	out, err := db.commit(context.Background(), &storage.WALRecord{Type: storage.RecLoadCSV, Rel: rel, Path: path})
	return out.loaded, err
}
