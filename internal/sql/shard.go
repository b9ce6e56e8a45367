package sql

import (
	"fmt"
	"runtime"

	"maybms/internal/engine"
	"maybms/internal/shard"
)

// Sharded execution: when a DB has sharding enabled, distributable
// CONF()/POSSIBLE/CERTAIN statements are placed on the shard set — execute
// runs the full plan over each shard's slice of every base relation on a
// worker pool, and the per-shard mass tables merge exactly (see execute and
// docs/sharding.md). Plans containing Join/Product/Difference are not
// distributable — they entangle components across inputs, so per-shard
// execution could double-count correlated provenance — and run serially on
// the authority store. A plain statement is per-row template work with
// nothing to merge: it always reads the authority snapshot, so its rows come
// out in the same order whatever the shard count.
//
// The shard set is derived state, a pure function of the store's: a
// published view derives its own set on the first query that reads it
// (commit.go), from the newest set built before it, rebuilding only the
// relations and components replaced or moved since; so queries always read
// a shard set built from the store snapshot they see, and commits that no
// mode query reads in between cost no re-balance.

// AutoShardRows is the template-row threshold above which EnableSharding(0,
// 0) turns sharding on: below it, partitioning overhead dominates.
const AutoShardRows = 200000

// EnableSharding partitions the DB's store into n sub-stores executed by a
// pool of the given worker count (0 workers derives the default from
// GOMAXPROCS with a clamp). n == 0 decides automatically from the store's
// size and the host's core count; n == 1 disables sharding. The set is
// built here, so a store that cannot be partitioned fails now; later
// commits' sets are derived on first use.
func (db *DB) EnableSharding(n, workers int) error {
	db.writer.Lock()
	defer db.writer.Unlock()
	if n == 0 {
		rows := 0
		snap := db.Snapshot()
		for _, name := range snap.Relations() {
			if r := snap.Rel(name); r != nil {
				rows += r.NumRows()
			}
		}
		if cores := runtime.GOMAXPROCS(0); rows >= AutoShardRows && cores >= 2 {
			n = cores
			if n > 8 {
				n = 8
			}
		} else {
			n = 1
		}
	}
	v := &view{snap: db.store.Snapshot()}
	if n > 1 {
		set, err := shard.NewSet(n, workers)
		if err != nil {
			return err
		}
		if set, err = set.Next(v.snap); err != nil {
			return fmt.Errorf("sql: re-balancing the shard set: %w", err)
		}
		v.from = set
		v.set.Store(set)
	}
	db.view.Store(v)
	return nil
}

// Sharding reports the DB's shard and worker-pool counts (1, 0 when
// sharding is off).
func (db *DB) Sharding() (shards, workers int) {
	if sh := db.view.Load().from; sh != nil {
		return sh.N(), sh.Workers()
	}
	return 1, 0
}

// ShardFingerprints returns one deterministic CRC32 per shard of the
// published shard set; nil when sharding is off. Two boots of the same
// durable directory log identical lists — the persistence-smoke
// byte-identity check. An error is a shard that failed to hash, or a set
// that could not be derived.
func (db *DB) ShardFingerprints() ([]uint32, error) {
	sh, err := db.view.Load().shardSet()
	if sh == nil {
		return nil, err
	}
	return sh.Fingerprints()
}

// ValidateShards re-checks the partitioning invariant of the published
// shard set against the published store snapshot; a no-op without sharding.
func (db *DB) ValidateShards() error {
	v := db.view.Load()
	sh, err := v.shardSet()
	if sh == nil {
		return err
	}
	return sh.Validate(v.snap)
}

// distributable reports whether the plan runs shard-local: every operator
// must distribute over a row partition of its inputs. Select, Project and
// Rename are per-row; Union concatenates disjoint slices. Join, Product and
// Difference compare rows across inputs — their matches entangle components
// from both sides, so per-shard execution would correlate what the merge
// assumes independent.
func (p *EnginePlan) distributable() bool {
	for _, op := range p.Ops {
		switch op.Kind {
		case OpSelect, OpProject, OpRename, OpUnion:
		default:
			return false
		}
	}
	return true
}

// placement picks where a plan runs on view v, and the worker-pool width
// execute may use there: the view's shard set and its pool for a
// distributable mode plan (deriving the set if no query has yet), the
// authority snapshot at width 1 otherwise (a plain plan, sharding off, or a
// join/product/difference plan). Striping a one-snapshot confidence sweep
// over the pool measured no faster than the serial sweep, sharded or not
// (ROADMAP item 1a). The view's shard set is built from its snapshot, so
// either placement carries the catalog the plan was checked against. The
// error is a shard set that could not be derived.
func (v *view) placement(tpl *EnginePlan) ([]*engine.Snapshot, int, error) {
	if v.from == nil || tpl.Mode == ModePlain || !tpl.distributable() {
		return []*engine.Snapshot{v.snap}, 1, nil
	}
	sh, err := v.shardSet()
	if err != nil {
		return nil, 0, err
	}
	return sh.Snapshots(), sh.Workers(), nil
}
