package engine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	. "maybms/internal/engine"
	"maybms/internal/relation"
)

// The copy-on-write contract at the scale where the component index is
// split: a store big enough that every part of the index holds entries, a
// chain of snapshots with random commits of every kind between them, and
// readers walking the snapshots while the writer runs.

// cowAttrs are the base relation's attributes. Certain cells hold 0–3 and
// or-sets draw from 0–7, so the chase's dependencies (cowDeps) hold on
// every certain tuple and every or-set keeps a value that satisfies them.
var cowAttrs = []string{"A", "B", "C"}

var cowDeps = [][]EGD{
	{{Premise: []Atom{{Attr: "A", Theta: relation.EQ, C: 5}}, Conclusion: Atom{Attr: "B", Theta: relation.NE, C: 6}}},
	{{Premise: []Atom{{Attr: "C", Theta: relation.EQ, C: 5}}, Conclusion: Atom{Attr: "A", Theta: relation.NE, C: 6}}},
}

// cowStore builds R with rows rows, a fraction density of whose fields are
// or-sets, and a small S.
func cowStore(t *testing.T, rng *rand.Rand, rows int, density float64) *Store {
	t.Helper()
	s := NewStore()
	for _, name := range []string{"R", "S"} {
		n := rows
		if name == "S" {
			n = 64
		}
		cols := make([][]int32, len(cowAttrs))
		for a := range cols {
			cols[a] = make([]int32, n)
			for i := range cols[a] {
				cols[a][i] = int32(rng.Intn(4))
			}
		}
		if _, err := s.AddRelation(name, cowAttrs, cols); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for _, at := range cowAttrs {
				if rng.Float64() < density {
					cowOrSet(t, rng, s, name, i, at)
				}
			}
		}
	}
	return s
}

// cowOrSet turns one certain field into an or-set of 2–3 distinct values
// with random probabilities.
func cowOrSet(t *testing.T, rng *rand.Rand, s *Store, rel string, row int, attr string) {
	t.Helper()
	perm := rng.Perm(8)[:2+rng.Intn(2)]
	vals := make([]int32, len(perm))
	probs := make([]float64, len(perm))
	total := 0.0
	for i, v := range perm {
		vals[i] = int32(v)
		probs[i] = 0.1 + rng.Float64()
		total += probs[i]
	}
	for i := range probs {
		probs[i] /= total
	}
	if err := s.SetUncertain(rel, row, attr, vals, probs); err != nil {
		t.Fatal(err)
	}
}

// cowWriter applies random commits of every kind to a store.
type cowWriter struct {
	t   *testing.T
	rng *rand.Rand
	s   *Store
	seq int
	// results lists the live committed results; merges counts the
	// MATERIALIZEs whose result shares a component between two fields.
	results []string
	merges  int
}

func (w *cowWriter) step() {
	t, rng, s := w.t, w.rng, w.s
	switch k := rng.Intn(6); {
	case k == 0: // SET UNCERTAIN on a certain field of R or S
		rel := "R"
		if rng.Intn(4) == 0 {
			rel = "S"
		}
		r := s.Rel(rel)
		for try := 0; try < 100; try++ {
			row, ai := rng.Intn(r.NumRows()), rng.Intn(len(cowAttrs))
			if r.Cols[ai][row] != Placeholder {
				cowOrSet(t, rng, s, rel, row, cowAttrs[ai])
				return
			}
		}
	case k <= 2: // MATERIALIZE: a conjunction over two or-sets of a row composes their components
		a := NewArena(s.Snapshot())
		x, y := cowAttrs[rng.Intn(3)], cowAttrs[rng.Intn(3)]
		w.seq++
		name := fmt.Sprintf("m%d", w.seq)
		if err := a.Select(name, "R", And{Gt(x, int32(rng.Intn(3))), Gt(y, int32(rng.Intn(3)))}); err != nil {
			t.Fatal(err)
		}
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		if s.Stats(name).NumCompGT1 > 0 {
			w.merges++
		}
		w.results = append(w.results, name)
	case k == 3: // CHASE (the certain data holds the dependencies)
		if err := s.ChaseEGDsOpt("R", cowDeps[rng.Intn(len(cowDeps))], ChaseOptions{AssumeClean: true}); err != nil {
			t.Fatal(err)
		}
	case k == 4: // DROP a result
		if len(w.results) == 0 {
			return
		}
		i := rng.Intn(len(w.results))
		s.DropRelation(w.results[i])
		w.results = append(w.results[:i], w.results[i+1:]...)
	default: // RENAME a result
		if len(w.results) == 0 {
			return
		}
		i := rng.Intn(len(w.results))
		w.seq++
		name := fmt.Sprintf("r%d", w.seq)
		if err := s.RenameRelation(w.results[i], name); err != nil {
			t.Fatal(err)
		}
		w.results[i] = name
	}
}

// stateDigest hashes an exported state by value: two digests differ when a
// cell, field, local world or probability does (flatState, faster).
func stateDigest(st *StoreState) [sha256.Size]byte {
	h := sha256.New()
	w := func(v any) { binary.Write(h, binary.LittleEndian, v) } //nolint:errcheck // hashing never fails
	for i, r := range st.Rels {
		if r == nil {
			continue
		}
		fmt.Fprintf(h, "rel %d %s %v\n", i, r.Name, r.Attrs)
		for _, col := range r.Cols {
			w(col)
		}
	}
	for _, c := range st.Comps {
		w(c.ID)
		w(c.Fields)
		for _, row := range c.Rows {
			w(row.Vals)
			w([]uint64(row.Absent))
			w(row.P)
		}
	}
	w(st.NextCID)
	return [sha256.Size]byte(h.Sum(nil))
}

// checkComps reports the first field of a component of v that v does not
// resolve back to that component, and a count that disagrees.
func checkComps(v interface {
	View
	NumComponents() int
}) error {
	var err error
	n := 0
	v.EachComp(func(c *Component) {
		n++
		for _, f := range c.Fields {
			if got := v.ComponentOf(f); got != c && err == nil {
				err = fmt.Errorf("field %v of component %d resolves to %p, want %p", f, c.ID, got, c)
			}
		}
	})
	if err == nil && n != v.NumComponents() {
		err = fmt.Errorf("visited %d components, NumComponents says %d", n, v.NumComponents())
	}
	return err
}

// TestSnapshotChainFrozenAtScale: a chain of snapshots of a store that fills
// every part of the component index, with random SET UNCERTAIN, MATERIALIZE
// (merging components), CHASE, DROP and RENAME commits between them. Every
// snapshot keeps its state and its invariants through the whole chain,
// through a Rollback to a middle snapshot and the writes after it, while
// readers resolve every snapshot's components concurrently.
func TestSnapshotChainFrozenAtScale(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := cowStore(t, rng, 16000, 0.08)
	if comps, fields := IndexPartsFilled(s); comps != IndexParts || fields != IndexParts {
		t.Fatalf("the store fills %d component parts and %d field parts of %d", comps, fields, IndexParts)
	}
	w := &cowWriter{t: t, rng: rng, s: s}

	var (
		mu      sync.Mutex // guards snaps and readErr
		snaps   []*Snapshot
		readErr error
		digests [][sha256.Size]byte
		done    atomic.Bool
		readers sync.WaitGroup
	)
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := g; !done.Load(); i++ {
				mu.Lock()
				if len(snaps) == 0 {
					mu.Unlock()
					runtime.Gosched()
					continue
				}
				sn := snaps[i%len(snaps)]
				mu.Unlock()
				if err := checkComps(sn); err != nil {
					mu.Lock()
					readErr = err
					mu.Unlock()
					return
				}
				time.Sleep(5 * time.Millisecond) // leave the writer a core
			}
		}(g)
	}
	// check compares the snapshots from the first'th on with what they
	// held when taken, validates them, and validates the store.
	check := func(when string, first int) {
		t.Helper()
		for i := first; i < len(snaps); i++ {
			sn := snaps[i]
			if stateDigest(sn.ExportState()) != digests[i] {
				t.Fatalf("%s: snapshot %d changed", when, i)
			}
			if err := ValidateSnapshot(sn, 1e-9); err != nil {
				t.Fatalf("%s: snapshot %d: %v", when, i, err)
			}
		}
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("%s: store: %v", when, err)
		}
	}

	for i := 0; i < 10; i++ {
		sn := s.Snapshot()
		digest := stateDigest(sn.ExportState())
		mu.Lock()
		snaps, digests = append(snaps, sn), append(digests, digest)
		mu.Unlock()
		for n := 1 + rng.Intn(4); n > 0; n-- {
			w.step()
		}
		check(fmt.Sprintf("after the writes following snapshot %d", i), i)
	}
	check("at the end of the chain", 0)
	if w.merges == 0 {
		t.Fatal("no MATERIALIZE merged two components")
	}

	s.Rollback(snaps[4])
	if stateDigest(s.ExportState()) != digests[4] {
		t.Fatal("Rollback did not restore the snapshot's state")
	}
	w.results = nil
	for _, name := range s.Relations() {
		if name != "R" && name != "S" {
			w.results = append(w.results, name)
		}
	}
	for n := 0; n < 6; n++ {
		w.step()
	}
	check("after Rollback and writes", 0)

	done.Store(true)
	readers.Wait()
	if readErr != nil {
		t.Fatalf("concurrent reader: %v", readErr)
	}
}

// TestDropRelationCopiesOncePerEpoch: DropRelation copies a component a
// snapshot may hold and stamps the copy, so a second DROP in the same epoch
// trims that copy in place. A component the chase copied in this epoch
// shares its cells with the snapshot's, and is copied again before a DROP
// edits it.
func TestDropRelationCopiesOncePerEpoch(t *testing.T) {
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 2}, {10, 20}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 0, "A", []int32{1, 2}, []float64{0.25, 0.75}); err != nil {
		t.Fatal(err)
	}
	Commit(t, s, func(a *Arena) error {
		for _, name := range []string{"m1", "m2", "m3"} {
			if err := a.Select(name, "R", Gt("A", 0)); err != nil {
				return err
			}
		}
		return nil
	})
	f := FieldID{Rel: 0, Row: 0, Attr: 0}
	if got := s.ComponentOf(f).Arity(); got != 4 {
		t.Fatalf("R's field shares a component of %d fields, want 4", got)
	}
	sn := s.Snapshot()
	flat := flatState(sn.ExportState())

	s.DropRelation("m1")
	c := s.ComponentOf(f)
	if c == sn.ComponentOf(f) {
		t.Fatal("DROP trimmed the snapshot's component in place")
	}
	s.DropRelation("m2")
	if s.ComponentOf(f) != c {
		t.Fatal("the second DROP of the epoch copied the component the first one made")
	}
	if got := c.Arity(); got != 2 {
		t.Fatalf("after two DROPs the component has %d fields, want 2", got)
	}

	// The refined chase removes A = 2 from row 0 (B = 10 there) without
	// composing the certain B, copying the component's local worlds only;
	// the DROP after it must copy the cells.
	sn2 := s.Snapshot()
	flat2 := flatState(sn2.ExportState())
	if err := s.ChaseEGDsRefined("R", []EGD{{
		Premise:    []Atom{{Attr: "A", Theta: relation.EQ, C: 2}},
		Conclusion: Atom{Attr: "B", Theta: relation.NE, C: 10},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := s.ComponentOf(f); got.Size() != 1 || got.Arity() != 2 {
		t.Fatalf("after the chase R's component has %d local worlds and %d fields, want 1 and 2", got.Size(), got.Arity())
	}
	s.DropRelation("m3")
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	if got := flatState(sn.ExportState()); got != flat {
		t.Fatalf("the DROPs edited the first snapshot:\n%s\nwant:\n%s", got, flat)
	}
	if got := flatState(sn2.ExportState()); got != flat2 {
		t.Fatalf("the chase and DROP edited the second snapshot:\n%s\nwant:\n%s", got, flat2)
	}
	for i, snap := range []*Snapshot{sn, sn2} {
		if err := ValidateSnapshot(snap, 1e-9); err != nil {
			t.Fatalf("snapshot %d: %v", i+1, err)
		}
	}
}

// TestDroppedSlotReuse: the next relation created after a DROP takes the
// dropped relation's slot, and no reader meets it there. A snapshot taken
// before the DROP resolves the slot to the old relation and the old
// components; an arena over that snapshot, whose result shares a component
// with the old relation's fields, fails to commit and leaves the store as
// it was.
func TestDroppedSlotReuse(t *testing.T) {
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 2, 3, 4}, {10, 20, 30, 40}}); err != nil {
		t.Fatal(err)
	}
	for _, row := range []int{0, 2} {
		if err := s.SetUncertain("R", row, "A", []int32{0, 5}, []float64{0.25, 0.75}); err != nil {
			t.Fatal(err)
		}
	}
	Commit(t, s, func(a *Arena) error { return a.Select("M", "R", Gt("A", 1)) })
	if _, err := s.AddRelation("T", []string{"A"}, [][]int32{{7}}); err != nil {
		t.Fatal(err)
	}
	const k = 1 // M's slot, below T's
	if got := s.RelByID(k); got == nil || got.Name != "M" {
		t.Fatalf("slot %d holds %v, want M", k, got)
	}
	sn := s.Snapshot()
	want, err := PossibleP(sn, "M")
	if err != nil {
		t.Fatal(err)
	}
	stale := NewArena(sn)
	if err := stale.Select("N", "M", Gt("A", 2)); err != nil {
		t.Fatal(err)
	}

	s.DropRelation("M")
	Commit(t, s, func(a *Arena) error { return a.Select("M2", "R", Eq("A", 5)) })
	if got := s.Rel("M2"); got == nil || got != s.RelByID(k) {
		t.Fatalf("the relation created after the DROP is not in the dropped slot %d", k)
	}
	if n := s.Snapshot().NumRelSlots(); n != 3 {
		t.Fatalf("the store has %d relation slots, want 3", n)
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}

	if got := sn.RelByID(k); got == nil || got.Name != "M" {
		t.Fatalf("the old snapshot resolves slot %d to %v, want M", k, got)
	}
	got, err := PossibleP(sn, "M")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the old snapshot's M answers %v after its slot was reused, want %v", got, want)
	}
	if err := ValidateSnapshot(sn, 1e-9); err != nil {
		t.Fatal(err)
	}

	before := flatState(s.ExportState())
	if err := stale.Commit(); err == nil || !strings.Contains(err.Error(), "conflicts with a concurrent change") {
		t.Fatalf("committing a result over the dropped relation: %v, want a conflict", err)
	}
	if got := flatState(s.ExportState()); got != before {
		t.Fatalf("the refused commit changed the store:\n%s\nwant:\n%s", got, before)
	}
}

// TestCommitCostIndependentOfStoreSize: a one-field SET UNCERTAIN right
// after a snapshot copies the index parts it touches, not the index, so the
// bytes it allocates barely grow with the store.
func TestCommitCostIndependentOfStoreSize(t *testing.T) {
	small, large := commitBytes(t, 10_000, 0), commitBytes(t, 100_000, 0)
	t.Logf("one-field commit after a snapshot: %d B at 10k rows, %d B at 100k rows", small, large)
	if large >= 2*small {
		t.Fatalf("the commit allocates %d B at 100k rows, %d B at 10k: it grows with the store", large, small)
	}
}

// TestCommitCostIndependentOfDroppedRelations: a new relation takes the
// slot a dropped one left, so the relation slice a commit's detach copies
// holds the live relations, not every relation ever created.
func TestCommitCostIndependentOfDroppedRelations(t *testing.T) {
	few, many := commitBytes(t, 10_000, 10), commitBytes(t, 10_000, 10_000)
	t.Logf("one-field commit after a snapshot: %d B after 10 create/drop cycles, %d B after 10k", few, many)
	if many >= 2*few {
		t.Fatalf("the commit allocates %d B after 10k create/drop cycles, %d B after 10: it grows with the relations dropped", many, few)
	}
}

// commitBytes returns the fewest bytes a one-field SET UNCERTAIN allocates
// right after a Snapshot, on a store whose n-row R has an or-set in every
// 20th row (census density: 5k or-sets at 100k rows) and which has created
// and dropped a relation drops times, a snapshot between each. The field is
// in a small side relation, so the commit's own work is the same at every n
// and only the store around it grows.
func commitBytes(t *testing.T, n, drops int) uint64 {
	t.Helper()
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{make([]int32, n), make([]int32, n)}); err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n; row += 20 {
		if err := s.SetUncertain("R", row, "A", []int32{1, 2}, nil); err != nil {
			t.Fatal(err)
		}
	}
	const rows = 8
	if _, err := s.AddRelation("T", []string{"A"}, [][]int32{make([]int32, rows)}); err != nil {
		t.Fatal(err)
	}
	for range drops {
		s.Snapshot()
		if _, err := s.AddRelation("X", []string{"A"}, [][]int32{{0}}); err != nil {
			t.Fatal(err)
		}
		s.Snapshot()
		s.DropRelation("X")
	}
	best := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for row := 0; row < rows; row++ {
		s.Snapshot()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := s.SetUncertain("T", row, "A", []int32{1, 2}, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	return best
}

// TestAllStatsMatchStats: the one-pass statistics of every relation equal
// its own Stats, on the random stores (merged, cross-relation and absent
// fields) and after a MATERIALIZE and a DROP.
func TestAllStatsMatchStats(t *testing.T) {
	check := func(seed int64, when string, sn *Snapshot) {
		t.Helper()
		all := sn.AllStats()
		if len(all) != len(sn.Relations()) {
			t.Fatalf("seed %d %s: statistics of %d relations, %d are live", seed, when, len(all), len(sn.Relations()))
		}
		for id := int32(0); int(id) < sn.NumRelSlots(); id++ {
			got, ok := all[id]
			r := sn.RelByID(id)
			if ok != (r != nil) {
				t.Fatalf("seed %d %s: relation slot %d: statistics %v, live %v", seed, when, id, ok, r != nil)
			}
			if r != nil && got != sn.Stats(r.Name) {
				t.Fatalf("seed %d %s: relation %s: one pass %+v, Stats %+v", seed, when, r.Name, got, sn.Stats(r.Name))
			}
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		for _, s := range []*Store{RandomConfStore(t, seed), RandomDiffStore(t, seed)} {
			check(seed, "as built", s.Snapshot())
			rels := s.Relations()
			right := s.Rel(rels[len(rels)-1])
			renamed := make(map[string]string, len(right.Attrs))
			for _, at := range right.Attrs {
				renamed[at] = "X" + at
			}
			Commit(t, s, func(a *Arena) error {
				if err := a.Select("m", rels[0], Gt("A0", 0)); err != nil {
					return err
				}
				if err := a.Rename("x", right.Name, renamed); err != nil {
					return err
				}
				_, err := a.Join("j", rels[0], "x", "A0", "XA1")
				return err
			})
			check(seed, "after MATERIALIZE", s.Snapshot())
			s.DropRelation("m")
			check(seed, "after DROP", s.Snapshot())
		}
	}
	rng := rand.New(rand.NewSource(3))
	s := cowStore(t, rng, 4000, 0.1)
	w := &cowWriter{t: t, rng: rng, s: s}
	for i := 0; i < 20; i++ {
		w.step()
	}
	check(3, "after random commits", s.Snapshot())
}

// TestSetUncertainRefusesBadProbabilities: an or-set's probabilities must
// be finite, non-negative and sum to 1 within 1e-6; a refused SET
// UNCERTAIN leaves the store as it was.
func TestSetUncertainRefusesBadProbabilities(t *testing.T) {
	s := arenaStore(t)
	before := flatState(s.ExportState())
	for _, probs := range [][]float64{
		{0.3, 0.3},
		{-0.5, 1.5},
		{math.NaN(), 1},
		{math.Inf(1), 0},
		{0.5, 0.5 + 2e-6},
		{1},
	} {
		if err := s.SetUncertain("S", 0, "D", []int32{1, 2}, probs); err == nil {
			t.Fatalf("SetUncertain accepted probabilities %v", probs)
		}
		if got := flatState(s.ExportState()); got != before {
			t.Fatalf("a refused SetUncertain (%v) changed the store", probs)
		}
	}
	if err := s.SetUncertain("S", 0, "D", []int32{1, 2}, []float64{0.5, 0.5 + 5e-7}); err != nil {
		t.Fatalf("probabilities within the tolerance: %v", err)
	}
}

// TestImportRefusesBadProbabilities: a restored state's local worlds must
// carry finite, non-negative probabilities summing to 1, as SET UNCERTAIN's
// must.
func TestImportRefusesBadProbabilities(t *testing.T) {
	for _, ps := range [][]float64{{math.NaN()}, {-0.5, 1.5}, {math.Inf(1), 0}, {0.3, 0.3}} {
		rows := make([]CompRow, len(ps))
		for i, p := range ps {
			rows[i] = CompRow{Vals: []int32{int32(i)}, P: p}
		}
		_, err := ImportState(&StoreState{
			Rels:    []*RelState{{Name: "T", Attrs: []string{"A"}, Cols: [][]int32{{Placeholder}}}},
			Comps:   []*CompState{{ID: 1, Fields: []FieldID{{Rel: 0, Row: 0}}, Rows: rows}},
			NextCID: 1,
		})
		if err == nil {
			t.Fatalf("ImportState accepted local worlds of probabilities %v", ps)
		}
	}
}
