package sql

import (
	"runtime"

	"maybms/internal/engine"
	"maybms/internal/shard"
)

// Sharded execution: when a DB has sharding enabled, distributable
// statements are placed on the shard set — execute runs the full plan over
// each shard's slice of every base relation on a worker pool, and the
// per-shard answers merge exactly (see execute and docs/sharding.md). Plans
// containing Join/Product/Difference are not distributable — they entangle
// components across inputs, so per-shard execution could double-count
// correlated provenance — and are placed on the authority store, where mode
// queries still get a morsel-parallel confidence sweep.
//
// The shard set is derived state, a pure function of the store's: every
// catalog commit re-balances it (the one Resync call, in commit), which
// rebuilds only the relations and components the commit replaced or moved,
// and queries in flight keep the snapshots of the set they started on.

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
		snap := db.store.Snapshot()
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
		db.mu.Lock()
		db.shards = nil
		db.mu.Unlock()
		return nil
	}
	sh, err := shard.New(db.store, n, workers)
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.shards = sh
	db.mu.Unlock()
	return nil
}

// Sharding reports the DB's shard and worker-pool counts (1, 0 when
// sharding is off).
func (db *DB) Sharding() (shards, workers int) {
	if sh := db.shardStore(); sh != nil {
		return sh.N(), sh.Workers()
	}
	return 1, 0
}

// ShardStats returns per-shard row counts and representation statistics of
// rel; nil when sharding is off.
func (db *DB) ShardStats(rel string) []shard.Info {
	sh := db.shardStore()
	if sh == nil {
		return nil
	}
	return sh.RelInfo(rel)
}

// ShardFingerprints returns one deterministic CRC32 per shard over the
// shard's state; nil when sharding is off. Two boots of the same durable
// directory log identical lists — the persistence-smoke byte-identity check.
func (db *DB) ShardFingerprints() []uint32 {
	sh := db.shardStore()
	if sh == nil {
		return nil
	}
	return sh.Fingerprints()
}

// ShardError reports why sharding was disabled, if a re-balance failed
// (nil while sharding is healthy or simply off).
func (db *DB) ShardError() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.shardErr
}

// ValidateShards re-checks the partitioning invariant against the store;
// a no-op without sharding.
func (db *DB) ValidateShards() error {
	if sh := db.shardStore(); sh != nil {
		return sh.Validate()
	}
	return nil
}

// shardStore reads the current shard set under db.mu.
func (db *DB) shardStore() *shard.Store {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.shards
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

// placement picks where a plan runs, and the worker-pool width execute may
// use there: the shard set for a distributable plan whose shard snapshots
// all carry the plan's catalog, the authority snapshot otherwise — sharding
// off, a join/product/difference plan, or a commit that raced the query (the
// shard set is re-balanced after the authority commits, so for a moment it is
// stale; snap was taken after the commit and is current).
func (db *DB) placement(snap *engine.Snapshot, tpl *EnginePlan) ([]*engine.Snapshot, int) {
	sh := db.shardStore()
	if sh == nil {
		return []*engine.Snapshot{snap}, 1
	}
	if tpl.distributable() {
		snaps := sh.Snapshots()
		current := true
		for _, sn := range snaps {
			current = current && tpl.CatalogValid(sn)
		}
		if current {
			return snaps, sh.Workers()
		}
	}
	return []*engine.Snapshot{snap}, sh.Workers()
}
