package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"
	"time"

	"maybms/internal/engine"
)

// Set is one sub-store set: N independent sub-stores partitioning one
// authority snapshot, and the statistics of the re-balance that built them.
// The authority remains the system of record — every commit lands there
// (and in the WAL) — and a set is a derived execution structure, a pure
// function of the snapshot it was built from. A Set never changes: Next
// derives its successor for a later authority state, rebuilding only what
// changed, so a caller can build a re-balance, decide against it, and keep
// the set it had.
type Set struct {
	n, workers int
	from       *layout            // what the set was built from; nil for an empty set
	subs       []*engine.Store    // never written after the build
	snaps      []*engine.Snapshot // one per sub-store, taken at the build
	stats      ResyncStats        // of the re-balance that built the set
}

// Store is a handle on the current Set over one authority store: Resync
// derives the next set after the authority changed and swaps it in, so
// readers holding snapshots of the old set keep a consistent view while new
// queries see the new one.
type Store struct {
	authority *engine.Store

	// build serialises Resync, which derives the next set from the current.
	build sync.Mutex

	mu  sync.RWMutex
	set *Set
}

// layout is the input a sub-store set was built from: the authority snapshot
// and the partition computed for it.
type layout struct {
	snap *engine.Snapshot
	part *partition
}

// holds reports whether relation slot ri of the layout is the object r dealt
// the same way — the condition for keeping every shard's copy of it. A nil
// layout (nothing built yet) holds nothing, which makes the from-scratch
// build the same code as a delta.
func (l *layout) holds(ri int, r *engine.Relation, owner []int32) bool {
	return l != nil && l.snap.RelByID(int32(ri)) == r && slices.Equal(l.part.rowShard[ri], owner)
}

// ResyncStats describes one re-balance: what it could keep of the previous
// sub-store set and what it rebuilt. Everything but Duration is a
// deterministic function of the authority's commit history.
type ResyncStats struct {
	Generation int64 // completed re-balances, this one included
	// Full is set on the first build, when there is nothing to keep.
	Full bool
	// Relations and components count authority objects: kept means every
	// shard's copy was reused, rebuilt that it was sliced/remapped and
	// validated anew. CellsCopied is the template cells of rebuilt relations.
	RelsKept, RelsRebuilt   int
	CompsKept, CompsRebuilt int
	CellsCopied             int64
	ShardRows               []int // template rows per shard, all relations
	Duration                time.Duration
}

// String renders the statistics as EXPLAIN prints them; everything before
// the trailing duration is deterministic.
func (st ResyncStats) String() string {
	kind := "delta"
	if st.Full {
		kind = "full"
	}
	return fmt.Sprintf("%s, relations %d kept %d rebuilt, components %d kept %d rebuilt, %d cells copied, rows per shard %v, %s",
		kind, st.RelsKept, st.RelsRebuilt, st.CompsKept, st.CompsRebuilt, st.CellsCopied, st.ShardRows, st.Duration.Round(time.Microsecond))
}

// NewSet returns the empty set of n shards (n ≥ 1) executed by a pool of the
// given worker count (0 derives the default from GOMAXPROCS with a clamp, see
// engine.DefaultConfWorkers). It holds no sub-stores; its Next is the first,
// full build.
func NewSet(n, workers int) (*Set, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: %d shards (want ≥ 1)", n)
	}
	if workers <= 0 {
		workers = engine.DefaultConfWorkers()
	}
	if workers > engine.MaxConfWorkers {
		workers = engine.MaxConfWorkers
	}
	return &Set{n: n, workers: workers}, nil
}

// New partitions authority into n sub-stores (n ≥ 1) executed by a pool of
// the given worker count (see NewSet).
func New(authority *engine.Store, n, workers int) (*Store, error) {
	set, err := NewSet(n, workers)
	if err != nil {
		return nil, err
	}
	if set, err = set.Next(authority.Snapshot()); err != nil {
		return nil, err
	}
	return &Store{authority: authority, set: set}, nil
}

// Current returns the sub-store set new queries see.
func (s *Store) Current() *Set {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.set
}

// Resync re-balances the current set to the authority's current state
// (Set.Next) and swaps the result in. Readers holding snapshots of the old
// set are unaffected: the swap is a pointer exchange, and kept objects are
// immutable.
func (s *Store) Resync() error {
	s.build.Lock()
	defer s.build.Unlock()
	next, err := s.Current().Next(s.authority.Snapshot())
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.set = next
	s.mu.Unlock()
	return nil
}

// Workers and Snapshots describe the current set (see the Set methods).
func (s *Store) Workers() int                  { return s.Current().workers }
func (s *Store) Snapshots() []*engine.Snapshot { return s.Current().Snapshots() }

// N returns the shard count, Workers the worker-pool size.
func (t *Set) N() int       { return t.n }
func (t *Set) Workers() int { return t.workers }

// LastResync returns the statistics of the re-balance that built the set;
// its Generation counts the re-balances since the first build.
func (t *Set) LastResync() ResyncStats { return t.stats }

// Snapshots returns one snapshot per shard — a mutually consistent read
// view of the set. The slice is shared and clipped: appending to it copies.
func (t *Set) Snapshots() []*engine.Snapshot { return slices.Clip(t.snaps) }

// Next derives the set for authority snapshot sn from t, which it leaves
// untouched. The partition is recomputed (O(rows) int32 work) and diffed
// against the one t was built from: the engine's mutators replace objects
// instead of editing them (engine/snapshot.go), so a relation that is the
// same object dealt the same way keeps every shard's copy of it, a
// component that is the same object over such relations keeps its copy,
// and only the rest is sliced, remapped and validated.
func (t *Set) Next(sn *engine.Snapshot) (*Set, error) {
	start := time.Now()
	p, err := computePartition(sn, t.n)
	if err != nil {
		return nil, err
	}
	prev := t.from
	prevSubs := make([]*engine.Snapshot, t.n) // nil: nothing to keep from
	copy(prevSubs, t.snaps)
	stats := ResyncStats{Full: prev == nil, ShardRows: make([]int, t.n)}

	slots := sn.NumRelSlots()
	plans := make([]engine.Derivation, t.n)
	for k := range plans {
		plans[k].Rels = make([]engine.DerivedRel, slots)
	}
	kept := make([]bool, slots)
	for ri := 0; ri < slots; ri++ {
		r := sn.RelByID(int32(ri))
		if r == nil {
			continue
		}
		if kept[ri] = prev.holds(ri, r, p.rowShard[ri]); kept[ri] {
			p.rowShard[ri], p.localRow[ri] = prev.part.rowShard[ri], prev.part.localRow[ri]
			for k := range plans {
				plans[k].Rels[ri].Keep = true
			}
			stats.RelsKept++
			continue
		}
		// computePartition's rows are views of one scratch array; own them.
		p.rowShard[ri] = slices.Clone(p.rowShard[ri])
		for k, rows := range p.renumber(ri) {
			plans[k].Rels[ri].Rows = rows
		}
		stats.RelsRebuilt++
		stats.CellsCopied += int64(r.NumRows()) * int64(len(r.Cols))
	}
	// Components follow their rows. The partitioning invariant is re-checked
	// on the way: every field of a component resolves to one shard.
	var spans error
	sn.EachComp(func(c *engine.Component) {
		k := p.rowShard[c.Fields[0].Rel][c.Fields[0].Row]
		keep := prev != nil && prev.snap.CompByID(c.ID) == c
		for _, f := range c.Fields {
			if other := p.rowShard[f.Rel][f.Row]; other != k && spans == nil {
				spans = fmt.Errorf("shard: component %d spans shards %d and %d (field %v)", c.ID, k, other, f)
			}
			keep = keep && kept[f.Rel]
		}
		dc := engine.DerivedComp{ID: c.ID}
		if keep {
			stats.CompsKept++
		} else {
			dc.Fields = make([]engine.FieldID, len(c.Fields))
			for i, f := range c.Fields {
				dc.Fields[i] = engine.FieldID{Rel: f.Rel, Row: p.localRow[f.Rel][f.Row], Attr: f.Attr}
			}
			stats.CompsRebuilt++
		}
		plans[k].Comps = append(plans[k].Comps, dc)
	})
	if spans != nil {
		return nil, spans
	}

	next := &Set{n: t.n, workers: t.workers, from: &layout{snap: sn, part: p},
		subs: make([]*engine.Store, t.n), snaps: make([]*engine.Snapshot, t.n)}
	err = engine.Fanout(t.n, t.workers, func(k int) (err error) {
		if next.subs[k], err = engine.DeriveStore(sn, prevSubs[k], plans[k]); err != nil {
			return fmt.Errorf("shard: rebuilding shard %d: %w", k, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for k, sub := range next.subs {
		next.snaps[k] = sub.Snapshot()
		for ri := 0; ri < slots; ri++ {
			if r := sub.RelByID(int32(ri)); r != nil {
				stats.ShardRows[k] += r.NumRows()
			}
		}
	}
	stats.Generation = t.stats.Generation + 1
	stats.Duration = time.Since(start)
	next.stats = stats
	return next, nil
}

// EachSnapshot fans f out over an already-taken snapshot set on a pool of
// the given width (engine.Fanout).
func EachSnapshot(snaps []*engine.Snapshot, workers int, f func(shard int, sn *engine.Snapshot) error) error {
	return engine.Fanout(len(snaps), workers, func(i int) error { return f(i, snaps[i]) })
}

// Info describes one shard's slice of a relation for EXPLAIN.
type Info struct {
	Shard int
	Rows  int
	Stats engine.Stats
}

// RelInfo returns per-shard row counts and representation statistics of rel
// (nil entries for shards where the relation is unknown — cannot happen for
// authority-cataloged relations, every shard carries every relation slot).
func (t *Set) RelInfo(rel string) []Info {
	out := make([]Info, len(t.snaps))
	for i, sn := range t.snaps {
		out[i] = Info{Shard: i}
		if r := sn.Rel(rel); r != nil {
			out[i].Rows = r.NumRows()
			out[i].Stats = sn.Stats(rel)
		}
	}
	return out
}

// Validate re-checks the set against authority snapshot sn: every
// sub-store's own invariants (engine.Store.Validate — Next validates only
// what it rebuilds, this covers the kept objects too), the row partition
// conserves every relation, each component lives on exactly one shard, and
// no component id appears twice across the sub-store set. It is the
// out-of-band check, not part of the commit path.
func (t *Set) Validate(sn *engine.Snapshot) error {
	st := sn.ExportState()
	for i, sub := range t.subs {
		if err := sub.Validate(1e-6); err != nil {
			return fmt.Errorf("shard: shard %d: %w", i, err)
		}
	}
	for ri, rs := range st.Rels {
		if rs == nil {
			continue
		}
		want := 0
		if len(rs.Cols) > 0 {
			want = len(rs.Cols[0])
		}
		got := 0
		for _, sub := range t.snaps {
			r := sub.Rel(rs.Name)
			if r == nil {
				return fmt.Errorf("shard: relation %q missing from a shard", rs.Name)
			}
			got += r.NumRows()
		}
		if got != want {
			return fmt.Errorf("shard: relation %q has %d rows across shards, authority has %d (slot %d)", rs.Name, got, want, ri)
		}
	}
	owner := make(map[int32]int)
	total := 0
	for i, sub := range t.snaps {
		ids := sortedCompIDs(sub.ExportState())
		total += len(ids)
		for _, id := range ids {
			if prev, dup := owner[id]; dup {
				return fmt.Errorf("shard: component %d on both shard %d and shard %d", id, prev, i)
			}
			owner[id] = i
		}
	}
	if total != len(st.Comps) {
		return fmt.Errorf("shard: %d components across shards, authority has %d", total, len(st.Comps))
	}
	for _, cs := range st.Comps {
		if _, ok := owner[cs.ID]; !ok {
			return fmt.Errorf("shard: component %d missing from every shard", cs.ID)
		}
	}
	return nil
}

// Fingerprints returns a deterministic CRC32 per shard over the shard's
// flat state — relation names, attributes, columns, and components with
// their local worlds. Two boots of the same durable directory with the same
// shard count log identical fingerprints; the CI persistence-smoke job
// diffs them across a kill -9 restart. A shard whose hashing panics fails
// the call.
func (t *Set) Fingerprints() ([]uint32, error) {
	out := make([]uint32, len(t.snaps))
	err := engine.Fanout(len(t.snaps), t.workers, func(i int) error {
		out[i] = fingerprintState(t.snaps[i].ExportState())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fingerprintState hashes a flat store state deterministically.
//
//maybms:unguarded boot-time integrity fingerprint; runs before any query guard exists
func fingerprintState(st *engine.StoreState) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:4], v)
		h.Write(buf[:4])
	}
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u32(uint32(len(s)))
		h.Write([]byte(s))
	}
	u32(uint32(len(st.Rels)))
	for _, rs := range st.Rels {
		if rs == nil {
			u32(math.MaxUint32)
			continue
		}
		str(rs.Name)
		u32(uint32(len(rs.Attrs)))
		for _, a := range rs.Attrs {
			str(a)
		}
		for _, col := range rs.Cols {
			u32(uint32(len(col)))
			for _, v := range col {
				u32(uint32(v))
			}
		}
	}
	u32(uint32(len(st.Comps)))
	for _, cs := range st.Comps {
		u32(uint32(cs.ID))
		u32(uint32(len(cs.Fields)))
		for _, f := range cs.Fields {
			u32(uint32(f.Rel))
			u32(uint32(f.Row))
			u32(uint32(f.Attr))
		}
		u32(uint32(len(cs.Rows)))
		for _, row := range cs.Rows {
			u32(uint32(len(row.Vals)))
			for _, v := range row.Vals {
				u32(uint32(v))
			}
			u32(uint32(len(row.Absent)))
			for _, w := range row.Absent {
				u64(w)
			}
			u64(math.Float64bits(row.P))
		}
	}
	return h.Sum32()
}
