package engine

import (
	"math/rand"
	"slices"
	"testing"
)

// TestUncIndexInsert: cells inserted in any order — appends, cells inside a
// row, rows in the middle — leave the index sorted and holding exactly them.
func TestUncIndexInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x uncIndex
	seen := map[uint64]bool{}
	for i := 0; i < 400; i++ {
		row, attr := int32(rng.Intn(60)), uint16(rng.Intn(6))
		if i < 100 {
			row = int32(i / 3) // a row-order prefix: the append path
		}
		if seen[cellKey(int(row), int(attr))] {
			continue
		}
		seen[cellKey(int(row), int(attr))] = true
		x.insert(row, attr)
	}
	n := 0
	for i, row := range x.rows {
		attrs := x.at(i)
		if (i > 0 && row <= x.rows[i-1]) || len(attrs) == 0 || !slices.IsSorted(attrs) {
			t.Fatalf("row %d (entry %d) out of order or empty: %v", row, i, attrs)
		}
		for _, a := range attrs {
			if !seen[cellKey(int(row), int(a))] {
				t.Fatalf("index holds (%d, %d), never inserted", row, a)
			}
			n++
		}
	}
	if n != len(seen) || len(x.off) != len(x.rows)+1 {
		t.Fatalf("index holds %d cells in %d offsets, want %d cells", n, len(x.off), len(seen))
	}
}
