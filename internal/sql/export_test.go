package sql

import (
	"fmt"
	"strings"

	"maybms/internal/engine"
	"maybms/internal/shard"
)

// KillLog closes the write-ahead log underneath a durable session, for the
// external tests: every further append fails, as it would on a dead disk.
func KillLog(db *DB) error { return db.dur.WAL().Close() }

// failNextDerivation makes the next shard-set derivation fail with err;
// the ones after it run as usual.
func failNextDerivation(err error) {
	next := deriveShardSet
	deriveShardSet = func(from *shard.Set, snap *engine.Snapshot) (*shard.Set, error) {
		deriveShardSet = next
		return nil, err
	}
}

// FlatState renders an exported state by value: an exported state shares the
// store's arrays, so an in-place edit would change both sides of a DeepEqual.
func FlatState(st *engine.StoreState) string {
	var b strings.Builder
	for i, r := range st.Rels {
		if r != nil {
			fmt.Fprintf(&b, "rel %d %+v\n", i, *r)
		}
	}
	for _, c := range st.Comps {
		fmt.Fprintf(&b, "comp %+v\n", *c)
	}
	fmt.Fprintf(&b, "next %d\n", st.NextCID)
	return b.String()
}
