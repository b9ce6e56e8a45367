package shard

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"maybms/internal/engine"
)

// randState builds a random multi-relation store state: template relations
// with placeholder cells, grouped into components of 1–3 fields. Fields of
// one component are drawn across relations on purpose — cross-relation
// components force shard co-location, the hard case of the partitioner.
func randState(r *rand.Rand, nrels, rows int) *engine.StoreState {
	st := &engine.StoreState{}
	var fields []engine.FieldID
	for ri := 0; ri < nrels; ri++ {
		attrs := []string{"A", "B", "C"}
		cols := make([][]int32, len(attrs))
		n := rows/2 + r.Intn(rows+1)
		for a := range cols {
			cols[a] = make([]int32, n)
			for row := range cols[a] {
				cols[a][row] = int32(r.Intn(40))
			}
		}
		// Sprinkle placeholders over ~15% of the cells.
		for row := 0; row < n; row++ {
			for a := range attrs {
				if r.Float64() < 0.15 {
					cols[a][row] = engine.Placeholder
					fields = append(fields, engine.FieldID{Rel: int32(ri), Row: int32(row), Attr: uint16(a)})
				}
			}
		}
		st.Rels = append(st.Rels, &engine.RelState{
			Name:  fmt.Sprintf("R%d", ri),
			Attrs: attrs,
			Cols:  cols,
		})
	}
	r.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	for len(fields) > 0 {
		k := 1 + r.Intn(3)
		if k > len(fields) {
			k = len(fields)
		}
		fs := append([]engine.FieldID(nil), fields[:k]...)
		fields = fields[k:]
		nw := 1 + r.Intn(3)
		crows := make([]engine.CompRow, nw)
		total := 0.0
		for w := range crows {
			vals := make([]int32, k)
			for i := range vals {
				vals[i] = int32(r.Intn(40))
			}
			crows[w] = engine.CompRow{Vals: vals, P: 0.1 + r.Float64()}
			total += crows[w].P
		}
		for w := range crows {
			crows[w].P /= total
		}
		st.NextCID++
		st.Comps = append(st.Comps, &engine.CompState{ID: st.NextCID, Fields: fs, Rows: crows})
	}
	return st
}

func mustImport(t *testing.T, st *engine.StoreState) *engine.Store {
	t.Helper()
	s, err := engine.ImportState(st)
	if err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	return s
}

func relNames(st *engine.StoreState) []string {
	var out []string
	for _, rs := range st.Rels {
		if rs != nil {
			out = append(out, rs.Name)
		}
	}
	return out
}

// possibleMasses is the pre-fold confidence table of rel over a pinned
// snapshot set, merged across the shards.
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
	return engine.MergeMasses(nil, parts)
}

// possibleP computes the Figure 19 confidence table of rel across the set's
// shards: each shard's pre-fold table covers its own groups, and the merged
// mass multiset per tuple equals the unsharded store's (the groups are
// partitioned, never split), so the fold is byte-identical to the unsharded
// engine's PossibleP.
func possibleP(set *Set, rel string) ([]engine.TupleConf, error) {
	tms, err := possibleMasses(set.Snapshots(), set.Workers(), rel)
	if err != nil {
		return nil, err
	}
	return engine.FoldMassTable(nil, tms)
}

// requireSameTable asserts byte-identity of two confidence tables: same
// tuples, and bit-equal float64 confidences.
func requireSameTable(t *testing.T, ctx string, want, got []engine.TupleConf) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d tuples, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if engine.CompareTuples(want[i].Tuple, got[i].Tuple) != 0 {
			t.Fatalf("%s: tuple %d is %v, want %v", ctx, i, got[i].Tuple, want[i].Tuple)
		}
		if want[i].Conf != got[i].Conf {
			t.Fatalf("%s: tuple %v conf %v, want %v (not byte-identical)", ctx, got[i].Tuple, got[i].Conf, want[i].Conf)
		}
	}
}

// TestDifferentialPossibleP is the randomized differential suite: across
// seeds and shard counts, the sharded confidence table must be byte-identical
// to the single-store engine's.
func TestDifferentialPossibleP(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		st := randState(rand.New(rand.NewSource(seed)), 3, 60)
		authority := mustImport(t, st)
		for _, n := range []int{1, 2, 3, 4, 7} {
			sh, err := New(authority, n, 2)
			if err != nil {
				t.Fatalf("seed %d n=%d: New: %v", seed, n, err)
			}
			if err := sh.Current().Validate(authority.Snapshot()); err != nil {
				t.Fatalf("seed %d n=%d: Validate: %v", seed, n, err)
			}
			for _, rel := range relNames(st) {
				want, err := engine.PossibleP(authority, rel)
				if err != nil {
					t.Fatalf("seed %d: authority PossibleP(%s): %v", seed, rel, err)
				}
				got, err := possibleP(sh.Current(), rel)
				if err != nil {
					t.Fatalf("seed %d n=%d: sharded PossibleP(%s): %v", seed, n, rel, err)
				}
				requireSameTable(t, fmt.Sprintf("seed %d n=%d rel %s", seed, n, rel), want, got)
			}
		}
	}
}

// TestCrossRelationCoLocation pins the invariant directly: a component
// spanning relations lands whole on one shard, whatever the shard count.
func TestCrossRelationCoLocation(t *testing.T) {
	st := randState(rand.New(rand.NewSource(42)), 4, 80)
	cross := 0
	for _, cs := range st.Comps {
		rel := cs.Fields[0].Rel
		for _, f := range cs.Fields[1:] {
			if f.Rel != rel {
				cross++
				break
			}
		}
	}
	if cross == 0 {
		t.Fatalf("generator produced no cross-relation components; the test would be vacuous")
	}
	sn := mustImport(t, st).Snapshot()
	for _, n := range []int{2, 3, 8} {
		p, err := computePartition(sn, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sn.EachComp(func(c *engine.Component) {
			k := p.rowShard[c.Fields[0].Rel][c.Fields[0].Row]
			for _, f := range c.Fields[1:] {
				if got := p.rowShard[f.Rel][f.Row]; got != k {
					t.Errorf("n=%d: component %d spans shards %d and %d (field %v)", n, c.ID, k, got, f)
				}
			}
		})
	}
}

// TestPartitionDeterministic: the same state partitions identically every
// time (the assignment drives fingerprints and restore byte-identity).
func TestPartitionDeterministic(t *testing.T) {
	st := randState(rand.New(rand.NewSource(7)), 3, 100)
	authority := mustImport(t, st)
	a, err := computePartition(authority.Snapshot(), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := computePartition(authority.Snapshot(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range a.rowShard {
		if !slices.Equal(a.rowShard[ri], b.rowShard[ri]) {
			t.Fatalf("rel %d: nondeterministic assignment", ri)
		}
	}
	s1, err := New(authority, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(authority, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := s1.Current().Fingerprints(), s2.Current().Fingerprints()
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("shard %d: fingerprint %08x vs %08x", i, f1[i], f2[i])
		}
	}
}

// TestValidateDetectsDrift: mutating the authority without Resync is exactly
// the drift Validate exists to catch.
func TestValidateDetectsDrift(t *testing.T) {
	st := randState(rand.New(rand.NewSource(3)), 2, 40)
	authority := mustImport(t, st)
	sh, err := New(authority, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Current().Validate(authority.Snapshot()); err != nil {
		t.Fatalf("fresh shard set: %v", err)
	}
	if _, err := authority.AddRelation("S", []string{"X"}, [][]int32{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := sh.Current().Validate(authority.Snapshot()); err == nil {
		t.Fatalf("Validate missed a drifted authority")
	}
	if err := sh.Resync(); err != nil {
		t.Fatal(err)
	}
	if err := sh.Current().Validate(authority.Snapshot()); err != nil {
		t.Fatalf("after Resync: %v", err)
	}
}

// TestResyncUnderReaders runs commits and their Resync — the delta path, plus
// one in-place mutation that forces a full rebuild — while readers fold
// confidence, meaningful under -race: kept relations and components are
// shared between sub-store generations. Each reader pins a snapshot set,
// folds it, holds it across at least three further generations and folds it
// again: the pre-commit answer must come back bit-identical, and no reader
// may ever observe an error.
func TestResyncUnderReaders(t *testing.T) {
	st := randState(rand.New(rand.NewSource(11)), 2, 50)
	authority := mustImport(t, st)
	sh, err := New(authority, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	fold := func(snaps []*engine.Snapshot) ([]engine.TupleConf, error) {
		tms, err := possibleMasses(snaps, 2, "R0")
		if err != nil {
			return nil, err
		}
		return engine.FoldMassTable(nil, tms)
	}
	const readers = 3
	stop := make(chan struct{})
	var held [readers]atomic.Int64 // hold-across-generations cycles completed
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				set := sh.Current()
				snaps, gen := set.Snapshots(), set.LastResync().Generation
				before, err := fold(snaps)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				for sh.Current().LastResync().Generation < gen+3 {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
				after, err := fold(snaps)
				if err != nil {
					t.Errorf("reader, %d generations on: %v", sh.Current().LastResync().Generation-gen, err)
					return
				}
				if !slices.Equal(tableBits(before), tableBits(after)) {
					t.Errorf("reader: a pinned snapshot set changed its answer across generations %d..%d", gen, sh.Current().LastResync().Generation)
					return
				}
				held[g].Add(1)
			}
		}(g)
	}
	r0 := authority.Rel("R0")
	certainRow := slices.IndexFunc(r0.Cols[0], func(v int32) bool { return v != engine.Placeholder })
	commits := 0
	for i := 0; i < 2000; i++ {
		done := i >= 20
		for g := range held {
			done = done && held[g].Load() >= 2
		}
		if done {
			break
		}
		switch {
		case i == 5 && certainRow >= 0:
			// One in-place mutation mid-stream: a new uncertain field.
			if err := authority.SetUncertain("R0", certainRow, "A", []int32{1, 2, 3}, nil); err != nil {
				t.Errorf("SetUncertain: %v", err)
			}
		case authority.Rel("Q") == nil:
			if !commitArena(authority, func(a *engine.Arena) error {
				err := a.Select("Q", "R0", engine.Gt("A", 10))
				return err
			}) {
				t.Errorf("commit %d: select did not commit", i)
			}
		default:
			authority.DropRelation("Q")
		}
		if err := sh.Resync(); err != nil {
			t.Errorf("Resync %d: %v", i, err)
			break
		}
		commits++
	}
	close(stop)
	wg.Wait()
	for g := range held {
		if held[g].Load() < 2 {
			t.Errorf("reader %d held a snapshot set across three generations %d times in %d commits, want ≥ 2", g, held[g].Load(), commits)
		}
	}
	requireDeltaEqualsFull(t, "after resyncs", authority, sh)
}

// tableBits flattens a confidence table for exact comparison.
func tableBits(tcs []engine.TupleConf) []uint64 {
	var out []uint64
	for _, tc := range tcs {
		for _, v := range tc.Tuple {
			out = append(out, uint64(v))
		}
		out = append(out, math.Float64bits(tc.Conf))
	}
	return out
}

// TestParallelFoldIdentity: the engine's striped sweep
// (Arena.PossibleMassesParallel) must be byte-identical to the serial fold — it backs the morsel-parallel
// confidence path on non-distributable plans.
func TestParallelFoldIdentity(t *testing.T) {
	st := randState(rand.New(rand.NewSource(19)), 2, 600)
	authority := mustImport(t, st)
	sn := authority.Snapshot()
	for _, rel := range relNames(st) {
		want, err := engine.PossibleP(sn, rel)
		if err != nil {
			t.Fatal(err)
		}
		ar := engine.AcquireArena(sn)
		defer engine.ReleaseArena(ar)
		for _, w := range []int{0, 1, 3, 8} {
			tms, err := ar.PossibleMassesParallel(rel, w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := engine.FoldMassTable(nil, tms)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTable(t, fmt.Sprintf("rel %s workers %d", rel, w), want, got)
		}
	}
}

// TestWorkerClamp pins the satellite fix: the default pool derives from
// GOMAXPROCS and is clamped.
func TestWorkerClamp(t *testing.T) {
	w := engine.DefaultConfWorkers()
	if w < 1 || w > engine.MaxConfWorkers {
		t.Fatalf("DefaultConfWorkers() = %d, want within [1, %d]", w, engine.MaxConfWorkers)
	}
	st := randState(rand.New(rand.NewSource(1)), 1, 10)
	sh, err := New(mustImport(t, st), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Workers(); got != w {
		t.Fatalf("Workers() = %d, want derived default %d", got, w)
	}
}
