package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// The differential suites live in package engine_test: they compare engine
// results against per-world evaluation through internal/bridge, which
// imports this package. What they share with the in-package tests stays
// here, exported to them: the random store builders (which reach into
// relation ids and component merging) and the helper that lands operator
// results in a store.

// Commit runs ops on a fresh arena over a snapshot of s and commits it, so
// the results land in the store for the test to enumerate or validate.
func Commit(t testing.TB, s *Store, ops func(a *Arena) error) {
	t.Helper()
	a := NewArena(s.Snapshot())
	if err := ops(a); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
}

// RandomConfStore builds a seeded random store exercising the tuple-level
// machinery: several relations, or-sets with non-uniform probabilities,
// multi-slot components (merged across rows), cross-relation components
// (merged across relations, forcing marginalization), and absent fields (⊥).
func RandomConfStore(t *testing.T, seed int64) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewStore()
	nrels := 1 + rng.Intn(2)
	type field struct {
		rel  string
		row  int
		attr string
	}
	var uncertain []field
	for ri := 0; ri < nrels; ri++ {
		name := fmt.Sprintf("T%d", ri)
		nattrs := 2 + rng.Intn(2)
		nrows := 2 + rng.Intn(4)
		attrs := make([]string, nattrs)
		cols := make([][]int32, nattrs)
		for a := range attrs {
			attrs[a] = fmt.Sprintf("A%d", a)
			cols[a] = make([]int32, nrows)
			for i := range cols[a] {
				cols[a][i] = int32(rng.Intn(4))
			}
		}
		if _, err := s.AddRelation(name, attrs, cols); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nrows; i++ {
			for a := 0; a < nattrs; a++ {
				if rng.Float64() < 0.4 {
					k := 2 + rng.Intn(2)
					vals := make([]int32, k)
					probs := make([]float64, k)
					total := 0.0
					for j := range vals {
						vals[j] = int32(rng.Intn(4))
						probs[j] = 0.1 + rng.Float64()
						total += probs[j]
					}
					for j := range probs {
						probs[j] /= total
					}
					if err := s.SetUncertain(name, i, attrs[a], vals, probs); err != nil {
						t.Fatal(err)
					}
					uncertain = append(uncertain, field{rel: name, row: i, attr: attrs[a]})
				}
			}
		}
	}
	// Merge a few random component pairs: same-relation pairs produce
	// multi-slot components, cross-relation pairs force marginalization.
	fid := func(f field) FieldID {
		r := s.Rel(f.rel)
		ai, err := r.AttrIndex(f.attr)
		if err != nil {
			t.Fatal(err)
		}
		return FieldID{Rel: r.id, Row: int32(f.row), Attr: ai}
	}
	for m := 0; m < 3 && len(uncertain) >= 2; m++ {
		a := uncertain[rng.Intn(len(uncertain))]
		b := uncertain[rng.Intn(len(uncertain))]
		if a == b {
			continue
		}
		if _, err := s.mergeComps(fid(a), fid(b)); err != nil {
			t.Fatal(err)
		}
	}
	// Mark some fields absent in some local worlds (⊥: the tuple is absent
	// from worlds choosing those local worlds).
	for _, f := range uncertain {
		if rng.Float64() < 0.5 {
			c := s.ComponentOf(fid(f))
			col := c.Pos(fid(f))
			w := rng.Intn(len(c.Rows))
			c.Rows[w].Absent = c.Rows[w].Absent.Set(col)
			s.Rel(f.rel).absence = true
		}
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return s
}

// RandomWideStore builds a seeded store whose relation T has components
// of both sizes the tuple-level view restricts differently: or-sets of 2–3
// values over a small domain, some merged four at a time across rows into
// components of up to 81 local worlds (mostly more than 16), others left
// alone,
// and absent fields (⊥) in some local worlds. The domain is small, so
// restricting a component to a few of its fields leaves many local worlds
// indistinguishable.
func RandomWideStore(t *testing.T, seed int64) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewStore()
	attrs := []string{"A0", "A1", "A2"}
	const rows = 6
	cols := make([][]int32, len(attrs))
	for a := range cols {
		cols[a] = make([]int32, rows)
		for i := range cols[a] {
			cols[a][i] = int32(rng.Intn(3))
		}
	}
	if _, err := s.AddRelation("T", attrs, cols); err != nil {
		t.Fatal(err)
	}
	var uncertain []FieldID
	for i := 0; i < rows; i++ {
		for a := range attrs {
			if rng.Float64() < 0.5 {
				continue
			}
			vals := []int32{0, 1, 2}
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			vals = vals[:2+rng.Intn(2)]
			probs := make([]float64, len(vals))
			total := 0.0
			for j := range vals {
				probs[j] = 0.1 + rng.Float64()
				total += probs[j]
			}
			for j := range probs {
				probs[j] /= total
			}
			if err := s.SetUncertain("T", i, attrs[a], vals, probs); err != nil {
				t.Fatal(err)
			}
			uncertain = append(uncertain, FieldID{Rel: s.Rel("T").id, Row: int32(i), Attr: uint16(a)})
		}
	}
	rng.Shuffle(len(uncertain), func(i, j int) { uncertain[i], uncertain[j] = uncertain[j], uncertain[i] })
	for k := 0; k+4 <= len(uncertain) && k < 8; k += 4 {
		if _, err := s.mergeComps(uncertain[k : k+4]...); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range uncertain {
		if rng.Float64() < 0.5 {
			c := s.ComponentOf(f)
			w := rng.Intn(len(c.Rows))
			c.Rows[w].Absent = c.Rows[w].Absent.Set(c.Pos(f))
			s.Rel("T").absence = true
		}
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return s
}

// RandomDiffStore builds a seeded store with two same-schema relations L
// and R whose tuples collide often.
func RandomDiffStore(t *testing.T, seed int64) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewStore()
	attrs := []string{"A0", "A1"}
	type field struct {
		rel  string
		row  int
		attr string
	}
	var uncertain []field
	nrows := map[string]int{}
	for _, name := range []string{"L", "R"} {
		n := 2 + rng.Intn(3)
		nrows[name] = n
		cols := make([][]int32, len(attrs))
		for a := range cols {
			cols[a] = make([]int32, n)
			for i := range cols[a] {
				cols[a][i] = int32(rng.Intn(3))
			}
		}
		if _, err := s.AddRelation(name, attrs, cols); err != nil {
			t.Fatal(err)
		}
	}
	// Copy some L templates into R verbatim so exact duplicates exist.
	lRel, rRel := s.Rel("L"), s.Rel("R")
	for j := 0; j < nrows["R"]; j++ {
		if rng.Float64() < 0.4 {
			i := rng.Intn(nrows["L"])
			for a := range attrs {
				rRel.Cols[a][j] = lRel.Cols[a][i]
			}
		}
	}
	for _, name := range []string{"L", "R"} {
		for i := 0; i < nrows[name]; i++ {
			for _, at := range attrs {
				if rng.Float64() >= 0.35 {
					continue
				}
				k := 2 + rng.Intn(2)
				vals := make([]int32, 0, k)
				probs := make([]float64, 0, k)
				seen := map[int32]bool{}
				total := 0.0
				for len(vals) < k {
					v := int32(rng.Intn(3))
					if seen[v] {
						continue
					}
					seen[v] = true
					vals = append(vals, v)
					p := 0.1 + rng.Float64()
					probs = append(probs, p)
					total += p
				}
				for j := range probs {
					probs[j] /= total
				}
				if err := s.SetUncertain(name, i, at, vals, probs); err != nil {
					t.Fatal(err)
				}
				uncertain = append(uncertain, field{rel: name, row: i, attr: at})
			}
		}
	}
	// Merge random component pairs: same-relation pairs produce multi-slot
	// components, cross-relation pairs correlate L with R — the case where
	// marking a left slot ⊥ must respect the joint distribution.
	fid := func(f field) FieldID {
		r := s.Rel(f.rel)
		ai, err := r.AttrIndex(f.attr)
		if err != nil {
			t.Fatal(err)
		}
		return FieldID{Rel: r.id, Row: int32(f.row), Attr: ai}
	}
	for m := 0; m < 2 && len(uncertain) >= 2; m++ {
		a := uncertain[rng.Intn(len(uncertain))]
		b := uncertain[rng.Intn(len(uncertain))]
		if a == b {
			continue
		}
		if _, err := s.mergeComps(fid(a), fid(b)); err != nil {
			t.Fatal(err)
		}
	}
	// Mark some fields absent in some local world (⊥: worlds of different
	// sizes — an absent right tuple must not delete anything).
	for _, f := range uncertain {
		if rng.Float64() < 0.4 {
			c := s.ComponentOf(fid(f))
			col := c.Pos(fid(f))
			w := rng.Intn(len(c.Rows))
			c.Rows[w].Absent = c.Rows[w].Absent.Set(col)
			s.Rel(f.rel).absence = true
		}
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return s
}
