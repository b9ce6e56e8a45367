package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// mergeKept is the reference for a stage's kept rows: the entries of the
// uncertainty index x whose rows sel keeps, found by walking both in
// order, with their result rows.
func mergeKept(x *uncIndex, sel []int32) []keptRow {
	var out []keptRow
	j := 0
	for i, row := range x.rows {
		for j < len(sel) && sel[j] < row {
			j++
		}
		if j < len(sel) && sel[j] == row {
			out = append(out, keptRow{i: int32(i), j: int32(j)})
		}
	}
	return out
}

// TestKeptRowsMatchMerge: the kept rows found by rank, or by merging where a
// batch's survivors far outnumber its candidates, are exactly the ones a
// merge of the uncertainty index with the selection vector gives. It
// drives keptRows.add directly over random batches of both shapes, and
// checks every stage of random staged selections — driven by postings and
// scanned, with rows decided per local world inserted into the vector and
// deleted from it.
func TestKeptRowsMatchMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Random candidates and survivors; a batch's survivors are from
	// [prev bound, bound). Densities span one candidate per survivor to one
	// per several thousand, so both ways of finding them run.
	ranked, merged := 0, 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20000)
		pc, ps := rng.Float64()*rng.Float64(), rng.Float64()
		var x uncIndex
		var sel []int32
		for row := range n {
			if rng.Float64() < pc {
				x.rows = append(x.rows, int32(row))
			}
			if rng.Float64() < ps {
				sel = append(sel, int32(row))
			}
		}
		var prev []keptRow
		if trial%2 == 1 { // a later stage: every other indexed row is a candidate
			for i := 0; i < len(x.rows); i += 2 {
				prev = append(prev, keptRow{i: int32(i)})
			}
		}
		a := NewArena(nil)
		m := a.keptRows(&Selection{src: &Relation{unc: x}, kept: prev}, trial%2)
		var got []keptRow
		for lo := 0; ; {
			hi := min(lo+1+rng.Intn(3000), len(sel))
			bound := int32(n)
			if hi < len(sel) {
				bound = sel[hi]
			}
			if cands := m.below(bound) - m.c; 2*(hi-lo) >= cands && hi-lo < rankedShare*cands {
				ranked++
			} else {
				merged++
			}
			// add reads the batch's survivors from lo on, as filter's
			// batches do.
			got = m.add(got, sel[:hi], lo, bound)
			if hi == len(sel) {
				break
			}
			lo = hi
		}
		want := mergeKept(&x, sel)
		if prev != nil {
			want = slices.DeleteFunc(want, func(k keptRow) bool { return k.i%2 == 1 })
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d rows, %d candidates, %d survivors): kept %v, the merge keeps %v", trial, n, len(x.rows), len(sel), got, want)
		}
	}
	if ranked == 0 || merged == 0 {
		t.Fatalf("batches found their kept rows by rank %d times and by merging %d times; want both", ranked, merged)
	}

	// Every stage of staged selections on random stores.
	for seed := int64(0); seed < 6; seed++ {
		s := postingStore(t, seed, postingMinRows+1500)
		sn := s.Snapshot()
		r := sn.Rel("R")
		attrs := r.Attrs[:4]
		inserted, deleted := 0, 0
		for q := 0; q < 25; q++ {
			stages := make(Stages, 1+rng.Intn(3))
			for k := range stages {
				stages[k] = stagePred(rng, attrs, 1)
			}
			if q%3 == 0 {
				stages[0] = Eq(attrs[rng.Intn(len(attrs))], int32(rng.Intn(4))) // selective: driven
			}
			for _, view := range []*Snapshot{sn, withoutPostings(sn)} {
				for k := range stages {
					label := fmt.Sprintf("seed %d query %d stage %d of %v", seed, q, k, stages)
					a := NewArena(view)
					if err := a.Select("x", "R", stages[:k+1]); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					v := a.Selection("x")
					if want := mergeKept(&r.unc, v.sel); !slices.Equal(v.kept, want) {
						t.Fatalf("%s: kept %v, the merge keeps %v", label, v.kept, want)
					}
				}
			}
			// Count the rows decided per world that the kernels alone would
			// have rejected (inserted) or kept (deleted) at the last stage.
			cp, err := stages[len(stages)-1].Compile(r)
			if err != nil {
				t.Fatal(err)
			}
			a := NewArena(sn)
			if err := a.Select("x", "R", stages); err != nil {
				t.Fatal(err)
			}
			sel := a.Selection("x").sel
			for _, row := range r.unc.rows {
				_, kept := slices.BinarySearch(sel, row)
				byKernel := len(cp.Filter(r.Cols, []int32{row})) == 1
				switch {
				case kept && !byKernel:
					inserted++
				case !kept && byKernel && len(stages) == 1:
					deleted++
				}
			}
		}
		if inserted == 0 || deleted == 0 {
			t.Fatalf("seed %d: %d rows decided per world were inserted and %d deleted; want both", seed, inserted, deleted)
		}
	}
}
