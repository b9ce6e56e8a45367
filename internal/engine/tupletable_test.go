package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestTupleTableEqualTuplesShareAnIndex(t *testing.T) {
	tt := newTupleTable(3)
	i, added := tt.intern([]int32{4, 5, 6})
	if !added || i != 0 {
		t.Fatalf("first tuple: index %d added %v, want 0 true", i, added)
	}
	// A fresh slice with equal words is the same tuple.
	if j, added := tt.intern([]int32{4, 5, 6}); added || j != i {
		t.Fatalf("equal tuple: index %d added %v, want %d false", j, added, i)
	}
	if tt.len() != 1 {
		t.Fatalf("%d tuples interned, want 1", tt.len())
	}
}

func TestTupleTablePermutationsAreDistinct(t *testing.T) {
	tt := newTupleTable(2)
	i, _ := tt.intern([]int32{1, 0})
	j, added := tt.intern([]int32{0, 1})
	if !added || i == j {
		t.Fatalf("(1,0) and (0,1) interned as %d and %d (added %v)", i, j, added)
	}
	if k, _ := tt.intern([]int32{1, 0}); k != i {
		t.Fatalf("(1,0) re-interned as %d, want %d", k, i)
	}
}

// Forcing one hash on every tuple makes each probe walk the whole cluster:
// the words, not the hash, must tell the tuples apart, through every growth.
func TestTupleTableCollidingHashes(t *testing.T) {
	tt := newTupleTable(2)
	const n = 100
	for round := 0; round < 2; round++ {
		for v := int32(0); v < n; v++ {
			i, added := tt.internHash(42, []int32{v, -v})
			if i != int(v) || added != (round == 0) {
				t.Fatalf("round %d tuple %d: index %d added %v", round, v, i, added)
			}
		}
	}
	if tt.len() != n {
		t.Fatalf("%d tuples interned, want %d", tt.len(), n)
	}
}

func TestTupleTableGrowthKeepsIndexes(t *testing.T) {
	tt := newTupleTable(1)
	start := len(tt.slots)
	const n = 5000
	for v := 0; v < n; v++ {
		if i, added := tt.intern([]int32{int32(v * 7)}); i != v || !added {
			t.Fatalf("tuple %d: index %d added %v", v, i, added)
		}
		if 2*tt.len() > len(tt.slots) {
			t.Fatalf("%d tuples in %d slots: past the load-factor limit", tt.len(), len(tt.slots))
		}
	}
	if len(tt.slots) <= start {
		t.Fatalf("table never grew past %d slots", start)
	}
	for v := 0; v < n; v++ {
		if i, added := tt.intern([]int32{int32(v * 7)}); i != v || added {
			t.Fatalf("after growth, tuple %d: index %d added %v", v, i, added)
		}
		if got := tt.tuple(v); got[0] != int32(v*7) {
			t.Fatalf("tuple %d reads back as %v", v, got)
		}
	}
}

// On random tuple streams the accumulator's canonical table equals one
// interned through a plain Go map.
func TestTupleAccumSortedMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		arity := 1 + rng.Intn(4)
		ac := newTupleAccum(arity)
		idx := map[string]int{}
		var ref []TupleMasses
		for k := 0; k < 1+rng.Intn(400); k++ {
			tup := make([]int32, arity)
			for a := range tup {
				tup[a] = int32(rng.Intn(5))
			}
			certain := rng.Intn(3) == 0
			mass := float64(rng.Intn(9)+1) / 10
			i := ac.intern(tup)
			key := fmt.Sprint(tup)
			j, ok := idx[key]
			if !ok {
				j = len(ref)
				idx[key] = j
				ref = append(ref, TupleMasses{Tuple: tup})
			}
			if i != j {
				t.Fatalf("trial %d: tuple %v interned as %d, first seen as %d", trial, tup, i, j)
			}
			if certain {
				ac.certain[i] = true
				ref[j].Certain = true
			} else {
				ac.masses[i] = append(ac.masses[i], mass)
				ref[j].Masses = append(ref[j].Masses, mass)
			}
		}
		sortMasses(ref)
		if got, want := fmt.Sprint(ac.sorted()), fmt.Sprint(ref); got != want {
			t.Fatalf("trial %d: sorted %s, map reference %s", trial, got, want)
		}
	}
}
