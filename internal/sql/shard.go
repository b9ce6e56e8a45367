package sql

import (
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
// execution could double-count correlated provenance — and are placed on the
// authority store, where their confidence sweep is striped over the pool
// instead. A plain statement is per-row template work with nothing to
// merge: it always reads the authority snapshot, so its rows come out in
// the same order whatever the shard count.
//
// The shard set is derived state, a pure function of the store's: every
// catalog commit re-balances it before the commit is published (commit.go),
// rebuilding only the relations and components the commit replaced or
// moved, and one published view carries both, so queries always read a
// shard set built from the store snapshot they see.

// AutoShardRows is the template-row threshold above which EnableSharding(0,
// 0) turns sharding on: below it, partitioning overhead dominates.
const AutoShardRows = 200000

// EnableSharding partitions the DB's store into n sub-stores executed by a
// pool of the given worker count (0 workers derives the default from
// GOMAXPROCS with a clamp). n == 0 decides automatically from the store's
// size and the host's core count; n == 1 disables sharding. The shard set
// is re-balanced on every subsequent catalog commit.
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
	if n <= 1 {
		return db.publish(nil)
	}
	set, err := shard.NewSet(n, workers)
	if err != nil {
		return err
	}
	return db.publish(set)
}

// Sharding reports the DB's shard and worker-pool counts (1, 0 when
// sharding is off).
func (db *DB) Sharding() (shards, workers int) {
	if sh := db.view.Load().shards; sh != nil {
		return sh.N(), sh.Workers()
	}
	return 1, 0
}

// ShardFingerprints returns one deterministic CRC32 per shard of the
// published shard set; nil when sharding is off. Two boots of the same
// durable directory log identical lists — the persistence-smoke
// byte-identity check. An error is a shard that failed to hash.
func (db *DB) ShardFingerprints() ([]uint32, error) {
	if sh := db.view.Load().shards; sh != nil {
		return sh.Fingerprints()
	}
	return nil, nil
}

// ValidateShards re-checks the partitioning invariant of the published
// shard set against the published store snapshot; a no-op without sharding.
func (db *DB) ValidateShards() error {
	if v := db.view.Load(); v.shards != nil {
		return v.shards.Validate(v.snap)
	}
	return nil
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
// execute may use there: the shard set for a distributable mode plan, the
// authority snapshot otherwise (a plain plan, sharding off, or a
// join/product/difference plan). The width is the shard set's pool on a
// sharded DB, whatever the placement, and 1 on an unsharded one: striping
// an unsharded σ/π confidence sweep measured slower than the serial sweep
// (ROADMAP item 1a). The view's shard set was built from its snapshot, so
// either placement carries the catalog the plan was checked against.
func (v *view) placement(tpl *EnginePlan) ([]*engine.Snapshot, int) {
	if v.shards == nil {
		return []*engine.Snapshot{v.snap}, 1
	}
	if tpl.Mode != ModePlain && tpl.distributable() {
		return v.shards.Snapshots(), v.shards.Workers()
	}
	return []*engine.Snapshot{v.snap}, v.shards.Workers()
}
