package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"maybms/internal/bench"
	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/sql"
	"maybms/internal/storage"
)

// randomState builds a seeded flat store state with two same-schema
// relations L and R: random certain values over a tiny domain, placeholder
// fields backed by single- and multi-field components (some spanning both
// relations), absent bits, and non-uniform normalized probabilities — the
// same structural variety engine/diff_test.go generates, expressed directly
// in the persistence contract's flat form.
func randomState(seed int64) *engine.StoreState {
	rng := rand.New(rand.NewSource(seed))
	attrs := []string{"A0", "A1"}
	st := &engine.StoreState{}
	var free []engine.FieldID
	for ri, name := range []string{"L", "R"} {
		n := 2 + rng.Intn(4)
		cols := make([][]int32, len(attrs))
		for a := range cols {
			cols[a] = make([]int32, n)
			for i := range cols[a] {
				if rng.Float64() < 0.3 {
					cols[a][i] = engine.Placeholder
					free = append(free, engine.FieldID{Rel: int32(ri), Row: int32(i), Attr: uint16(a)})
				} else {
					cols[a][i] = int32(rng.Intn(3))
				}
			}
		}
		st.Rels = append(st.Rels, &engine.RelState{Name: name, Attrs: attrs, Cols: cols})
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	for len(free) > 0 {
		k := 1
		if len(free) >= 2 && rng.Float64() < 0.4 {
			k = 2
		}
		fields := append([]engine.FieldID(nil), free[:k]...)
		free = free[k:]
		nw := 2 + rng.Intn(2)
		rows := make([]engine.CompRow, nw)
		total := 0.0
		for w := range rows {
			vals := make([]int32, k)
			var absent engine.Bitset
			for i := range vals {
				vals[i] = int32(rng.Intn(3))
				if rng.Float64() < 0.25 {
					absent = absent.Set(i)
				}
			}
			p := 0.1 + rng.Float64()
			total += p
			rows[w] = engine.CompRow{Vals: vals, Absent: absent, P: p}
		}
		for w := range rows {
			rows[w].P /= total
		}
		st.Comps = append(st.Comps, &engine.CompState{
			ID:     int32(len(st.Comps) + 1),
			Fields: fields,
			Rows:   rows,
		})
	}
	st.NextCID = int32(len(st.Comps))
	return st
}

func mustImport(t *testing.T, st *engine.StoreState) *engine.Store {
	t.Helper()
	s, err := engine.ImportState(st)
	if err != nil {
		t.Fatalf("importing generated state: %v", err)
	}
	return s
}

func saveBytes(t *testing.T, s *engine.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := storage.Save(s, &buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// droppedSlotStore builds three relations with uncertain fields and drops
// the middle one, leaving a nil catalog slot: components key relations by
// id, so the slot must survive a round trip as an absent RELHDR.
func droppedSlotStore(t *testing.T) *engine.Store {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	s := engine.NewStore()
	attrs := []string{"A", "B", "C", "D"}
	for _, name := range []string{"R", "S", "T"} {
		cols := make([][]int32, len(attrs))
		for a := range cols {
			cols[a] = make([]int32, 400)
			for row := range cols[a] {
				cols[a][row] = int32(r.Intn(50))
			}
		}
		if _, err := s.AddRelation(name, attrs, cols); err != nil {
			t.Fatal(err)
		}
		for row := 0; row < 400; row += 7 {
			if err := s.SetUncertain(name, row, attrs[row%len(attrs)], []int32{1, 2, 3}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.DropRelation("S")
	return s
}

// refill commits a MATERIALIZE of σ_{A>10}(T) as U into s, a
// droppedSlotStore or a load of one, and checks that U took the slot the
// DROP of S left.
func refill(t *testing.T, s *engine.Store) {
	t.Helper()
	a := engine.NewArena(s.Snapshot())
	if err := a.Select("U", "T", engine.Gt("A", 10)); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if r := s.RelByID(1); r == nil || r.Name != "U" {
		t.Fatalf("slot 1 holds %v after the MATERIALIZE, want U", r)
	}
}

// TestSaveLoadRoundTrip: save → load must validate, and re-saving the
// loaded store must reproduce the exact bytes (the serialization is
// canonical, which is what makes snapshot diffs meaningful).
func TestSaveLoadRoundTrip(t *testing.T) {
	inputs := make(map[string]*engine.Store)
	for seed := int64(0); seed < 40; seed++ {
		inputs[fmt.Sprintf("seed %d", seed)] = mustImport(t, randomState(seed))
	}
	inputs["dropped relation"] = droppedSlotStore(t)
	refilled := droppedSlotStore(t)
	refill(t, refilled)
	inputs["refilled slot"] = refilled
	for name, s := range inputs {
		b1 := saveBytes(t, s)
		loaded, err := storage.Load(bytes.NewReader(b1))
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		if err := loaded.Validate(1e-9); err != nil {
			t.Fatalf("%s: loaded store invalid: %v", name, err)
		}
		b2 := saveBytes(t, loaded)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: re-saved snapshot differs (%d vs %d bytes)", name, len(b1), len(b2))
		}
	}

	// The dropped slot survives the round trip as an absent RELHDR, so a
	// MATERIALIZE after the load takes the id it takes on the original.
	orig := droppedSlotStore(t)
	loaded, err := storage.Load(bytes.NewReader(saveBytes(t, orig)))
	if err != nil {
		t.Fatal(err)
	}
	refill(t, orig)
	refill(t, loaded)
	if got, want := loaded.ExportState(), orig.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("refilled after the load:\n%+v\nwant, refilled before the save:\n%+v", got, want)
	}
	if !bytes.Equal(saveBytes(t, loaded), saveBytes(t, orig)) {
		t.Fatal("the store refilled after the load saves other bytes than the one refilled before the save")
	}
}

// TestSaveLoadCensus round-trips a realistic store: the generated census
// relation with noise.
func TestSaveLoadCensus(t *testing.T) {
	p, err := bench.Prepare(2000, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	b1 := saveBytes(t, p.Store)
	loaded, err := storage.Load(bytes.NewReader(b1))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(b1, saveBytes(t, loaded)) {
		t.Fatal("census snapshot not byte-identical after round trip")
	}
	if got, want := loaded.Stats("R"), p.Store.Stats("R"); got != want {
		t.Fatalf("stats diverged: %+v vs %+v", got, want)
	}
}

// queryLines renders one query's full result (values and confidences) as a
// sorted line list, the unit of the differential comparison below.
func queryLines(t *testing.T, db *sql.DB, q string) []string {
	t.Helper()
	rows, err := db.Query(q)
	if err != nil {
		// Errors must at least be deterministic across identical stores.
		return []string{"error: " + err.Error()}
	}
	defer rows.Close()
	cols := rows.Columns()
	vals := make([]relation.Value, len(cols))
	dests := make([]any, len(cols))
	for i := range vals {
		dests[i] = &vals[i]
	}
	var out []string
	for rows.Next() {
		if err := rows.Scan(dests...); err != nil {
			t.Fatalf("%s: scan: %v", q, err)
		}
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = v.String()
		}
		out = append(out, fmt.Sprintf("(%s) conf=%.12g", strings.Join(parts, ","), rows.Conf()))
	}
	sort.Strings(out)
	return out
}

// TestDifferentialQueries: a loaded store must answer every query mode
// byte-identically to the store it was saved from.
func TestDifferentialQueries(t *testing.T) {
	queries := []string{
		"SELECT A0, A1 FROM L",
		"SELECT POSSIBLE A0, A1 FROM L",
		"SELECT CONF() FROM L WHERE A0 = 1",
		"SELECT CERTAIN A0 FROM R",
		"SELECT * FROM L EXCEPT SELECT * FROM R",
		"SELECT POSSIBLE A0 FROM L WHERE A1 = 2",
	}
	for seed := int64(0); seed < 25; seed++ {
		orig := mustImport(t, randomState(seed))
		loaded, err := storage.Load(bytes.NewReader(saveBytes(t, orig)))
		if err != nil {
			t.Fatalf("seed %d: Load: %v", seed, err)
		}
		dbO, dbL := sql.Open(orig), sql.Open(loaded)
		for _, q := range queries {
			got := queryLines(t, dbL, q)
			want := queryLines(t, dbO, q)
			if len(got) != len(want) {
				t.Fatalf("seed %d %q: %d rows on loaded store, %d on original\ngot:  %v\nwant: %v",
					seed, q, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d %q row %d: %q on loaded store, %q on original", seed, q, i, got[i], want[i])
				}
			}
		}
		dbO.Close()
		dbL.Close()
	}
}

// typedLoadErr reports whether err wraps one of the storage error types —
// the contract for every load failure.
func typedLoadErr(err error) bool {
	return errors.Is(err, storage.ErrBadMagic) ||
		errors.Is(err, storage.ErrBadVersion) ||
		errors.Is(err, storage.ErrChecksum) ||
		errors.Is(err, storage.ErrTruncated) ||
		errors.Is(err, storage.ErrCorrupt)
}

// TestLoadDamage exercises the specific damage classes the format must
// catch: truncation at every boundary, a flipped payload byte, bad magic,
// and an unknown version.
func TestLoadDamage(t *testing.T) {
	s := mustImport(t, randomState(3))
	good := saveBytes(t, s)
	if _, err := storage.Load(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine snapshot failed to load: %v", err)
	}

	for _, cut := range []int{0, 3, 4, 8, 15, 16, 20, len(good) / 2, len(good) - 1} {
		if cut >= len(good) {
			continue
		}
		if _, err := storage.Load(bytes.NewReader(good[:cut])); err == nil || !typedLoadErr(err) {
			t.Fatalf("truncation at %d: got %v, want a typed error", cut, err)
		}
	}
	for _, flip := range []int{0, 5, 17, 40, len(good) / 2, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[flip] ^= 0x40
		if _, err := storage.Load(bytes.NewReader(bad)); err == nil {
			// A flip may land in a value byte and still checksum-fail; it must
			// never load silently.
			t.Fatalf("flipped byte %d loaded without error", flip)
		} else if !typedLoadErr(err) {
			t.Fatalf("flipped byte %d: untyped error %v", flip, err)
		}
	}
	bad := append([]byte(nil), good...)
	copy(bad, "NOPE")
	if _, err := storage.Load(bytes.NewReader(bad)); !errors.Is(err, storage.ErrBadMagic) {
		t.Fatalf("bad magic: got %v, want ErrBadMagic", err)
	}
	bad = append([]byte(nil), good...)
	bad[4] = 99
	if _, err := storage.Load(bytes.NewReader(bad)); !errors.Is(err, storage.ErrBadVersion) {
		t.Fatalf("bad version: got %v, want ErrBadVersion", err)
	}
}

// FuzzSnapshotLoad: arbitrary bytes must either load a valid store or fail
// with a typed error — never panic, never return a store that fails
// Validate.
func FuzzSnapshotLoad(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		s, err := engine.ImportState(randomState(seed))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := storage.Save(s, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add([]byte{})
	f.Add([]byte("MYBS"))
	f.Add([]byte("MYBSgarbage that is long enough to cover the header"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := storage.Load(bytes.NewReader(data))
		if err != nil {
			if !typedLoadErr(err) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		if err := st.Validate(1e-6); err != nil {
			t.Fatalf("Load returned an invalid store: %v", err)
		}
	})
}
