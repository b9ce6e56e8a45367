package shard

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"
	"time"

	"maybms/internal/engine"
)

// Store partitions an authority engine.Store into N independent sub-stores.
// The authority remains the system of record — every commit still lands
// there (and in the WAL) — and the sub-stores are a derived execution
// structure, a pure function of the authority's state: Resync brings them up
// to date after a commit, rebuilding only what the commit changed, and swaps
// the sub-store set atomically, so readers holding snapshots of the old set
// keep a consistent view while new queries see the new one.
type Store struct {
	authority *engine.Store
	n         int
	workers   int

	// build serialises Resync, which carries state from one call to the
	// next: last is what subs was built from (nil before the first build).
	build sync.Mutex
	last  *layout

	mu    sync.RWMutex
	subs  []*engine.Store
	stats ResyncStats // of the Resync that built subs; Generation counts them
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

// ResyncStats describes one Resync: what it could keep of the previous
// sub-store set and what it rebuilt. Everything but Duration is a
// deterministic function of the authority's commit history.
type ResyncStats struct {
	Generation int64 // completed Resyncs, this one included
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

// New partitions authority into n sub-stores (n ≥ 1) executed by a pool of
// the given worker count (0 derives the default from GOMAXPROCS with a
// clamp, see engine.DefaultConfWorkers).
func New(authority *engine.Store, n, workers int) (*Store, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: %d shards (want ≥ 1)", n)
	}
	if workers <= 0 {
		workers = engine.DefaultConfWorkers()
	}
	if workers > engine.MaxConfWorkers {
		workers = engine.MaxConfWorkers
	}
	s := &Store{authority: authority, n: n, workers: workers}
	if err := s.Resync(); err != nil {
		return nil, err
	}
	return s, nil
}

// N returns the shard count, Workers the worker-pool size.
func (s *Store) N() int       { return s.n }
func (s *Store) Workers() int { return s.workers }

// Generation returns the number of completed Resyncs (the re-balance
// counter; Explain reports it).
func (s *Store) Generation() int64 { return s.LastResync().Generation }

// LastResync returns the statistics of the Resync that built the current
// sub-store set.
func (s *Store) LastResync() ResyncStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// Resync brings the sub-store set up to date with the authority's current
// state and swaps it in — the re-balance step after a commit. The partition
// is recomputed (O(rows) int32 work) and diffed against the one the current
// set was built from: the engine's mutators replace objects instead of
// editing them (engine/snapshot.go), so a relation that is the same object
// dealt the same way keeps every shard's copy of it, a component that is the
// same object over such relations keeps its copy, and only the rest is
// sliced, remapped and validated. Readers holding snapshots of the old
// sub-stores are unaffected (the swap is a pointer exchange; kept objects
// are immutable).
func (s *Store) Resync() error {
	s.build.Lock()
	defer s.build.Unlock()
	start := time.Now()
	sn := s.authority.Snapshot()
	p, err := computePartition(sn, s.n)
	if err != nil {
		return err
	}
	prev := s.last
	prevSubs := make([]*engine.Snapshot, s.n) // nil: nothing to keep from
	if prev != nil {
		prevSubs = s.Snapshots()
	}
	stats := ResyncStats{Full: prev == nil, ShardRows: make([]int, s.n)}

	slots := sn.NumRelSlots()
	plans := make([]engine.Derivation, s.n)
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
		return spans
	}

	subs := make([]*engine.Store, s.n)
	errs := make([]error, s.n)
	var wg sync.WaitGroup
	for k := range plans {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			subs[k], errs[k] = engine.DeriveStore(sn, prevSubs[k], plans[k])
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return fmt.Errorf("shard: rebuilding shard %d: %w", k, err)
		}
	}
	for k, sub := range subs {
		for ri := 0; ri < slots; ri++ {
			if r := sub.RelByID(int32(ri)); r != nil {
				stats.ShardRows[k] += r.NumRows()
			}
		}
	}
	s.last = &layout{snap: sn, part: p}
	s.mu.Lock()
	stats.Generation = s.stats.Generation + 1
	stats.Duration = time.Since(start)
	s.subs = subs
	s.stats = stats
	s.mu.Unlock()
	return nil
}

// Snapshots returns one O(1) copy-on-write snapshot per shard — a mutually
// consistent read view of the current sub-store set.
func (s *Store) Snapshots() []*engine.Snapshot {
	s.mu.RLock()
	subs := s.subs
	s.mu.RUnlock()
	snaps := make([]*engine.Snapshot, len(subs))
	for i, sub := range subs {
		snaps[i] = sub.Snapshot()
	}
	return snaps
}

// EachSnapshot fans f out over an already-taken snapshot set on a pool of
// the given width; it is the scheduler under the store's own confidence
// methods and the sql layer's executor (which must pin one snapshot set per
// query).
func EachSnapshot(snaps []*engine.Snapshot, workers int, f func(shard int, sn *engine.Snapshot) error) error {
	return EachSnapshotCtx(context.Background(), snaps, workers, f)
}

// EachSnapshotCtx is EachSnapshot with first-failure abort: when ctx is
// canceled or any shard returns an error (or panics), the queued shards are
// never started and the pool drains as soon as the in-flight shards notice —
// a canceled query stops consuming workers instead of grinding through the
// remaining morsels. Worker panics are contained and surface as the returned
// error, so one poisoned shard cannot kill the process.
func EachSnapshotCtx(ctx context.Context, snaps []*engine.Snapshot, workers int, f func(shard int, sn *engine.Snapshot) error) error {
	if workers <= 0 {
		workers = engine.DefaultConfWorkers()
	}
	if workers > len(snaps) {
		workers = len(snaps)
	}
	run := func(i int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("shard: worker panic on shard %d: %v", i, p)
			}
		}()
		return f(i, snaps[i])
	}
	if workers <= 1 {
		for i := range snaps {
			if err := ctx.Err(); err != nil {
				return engine.Canceled(err)
			}
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	// abort releases the pool on first failure: the feeder stops handing out
	// shards and the workers fall through their channel reads.
	abortCtx, abort := context.WithCancel(ctx)
	defer abort()
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
		abort()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if abortCtx.Err() != nil {
					continue // drain without running: the query is dead
				}
				if err := run(i); err != nil {
					fail(err)
				}
			}
		}()
	}
feed:
	for i := range snaps {
		select {
		case idx <- i:
		case <-abortCtx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if first != nil {
		return first
	}
	return engine.Canceled(ctx.Err())
}

// PossibleMasses computes the pre-fold confidence table of rel across all
// shards: each shard's table covers its own groups, and the merged mass
// multiset per tuple equals the unsharded store's (the groups are
// partitioned, never split), so folding gives byte-identical confidences.
func (s *Store) PossibleMasses(rel string) ([]engine.TupleMasses, error) {
	return possibleMasses(s.Snapshots(), s.workers, rel)
}

// possibleMasses is PossibleMasses over an already-pinned snapshot set.
func possibleMasses(snaps []*engine.Snapshot, workers int, rel string) ([]engine.TupleMasses, error) {
	parts := make([][]engine.TupleMasses, len(snaps))
	err := EachSnapshot(snaps, workers, func(i int, sn *engine.Snapshot) error {
		tms, err := engine.PossibleMasses(sn, rel)
		if err != nil {
			return err
		}
		parts[i] = tms
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The store-level API carries no request context, so the merge runs
	// unguarded (nil guard); the serving layer uses the ctx-aware sql path.
	return engine.MergeMasses(nil, parts)
}

// PossibleP computes the Figure 19 confidence table of rel morsel-parallel
// across the shards; byte-identical to the unsharded engine's PossibleP.
func (s *Store) PossibleP(rel string) ([]engine.TupleConf, error) {
	tms, err := s.PossibleMasses(rel)
	if err != nil {
		return nil, err
	}
	return engine.FoldMassTable(nil, tms)
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
func (s *Store) RelInfo(rel string) []Info {
	snaps := s.Snapshots()
	out := make([]Info, len(snaps))
	for i, sn := range snaps {
		out[i] = Info{Shard: i}
		if r := sn.Rel(rel); r != nil {
			out[i].Rows = r.NumRows()
			out[i].Stats = sn.Stats(rel)
		}
	}
	return out
}

// Validate re-checks the shard set against the authority's current state:
// every sub-store's own invariants (engine.Store.Validate — Resync validates
// only what it rebuilds, this covers the kept objects too), the row
// partition conserves every relation, each component lives on exactly one
// shard, and no component id appears twice across the sub-store set. It is
// the out-of-band check, not part of the commit path.
func (s *Store) Validate() error {
	st := s.authority.ExportState()
	s.mu.RLock()
	subs := s.subs
	s.mu.RUnlock()
	snaps := make([]*engine.Snapshot, len(subs))
	for i, sub := range subs {
		if err := sub.Validate(1e-6); err != nil {
			return fmt.Errorf("shard: shard %d: %w", i, err)
		}
		snaps[i] = sub.Snapshot()
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
		for _, sn := range snaps {
			r := sn.Rel(rs.Name)
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
	for i, sn := range snaps {
		ids := sortedCompIDs(sn.ExportState())
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
// diffs them across a kill -9 restart.
func (s *Store) Fingerprints() []uint32 {
	s.mu.RLock()
	subs := s.subs
	s.mu.RUnlock()
	out := make([]uint32, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub *engine.Store) {
			defer wg.Done()
			out[i] = fingerprintState(sub.ExportState())
		}(i, sub)
	}
	wg.Wait()
	return out
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
