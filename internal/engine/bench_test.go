package engine_test

import (
	"math/rand"
	"sync"
	"testing"

	"maybms/internal/census"
	. "maybms/internal/engine"
)

// The operator layer of the read path on one conf_fold shard's shape: 50k
// census rows x 50 columns with 0.1% or-set noise. The selection keeps
// CITIZEN = 0 (about a quarter of the rows) and the projection keeps
// POWSTATE; PossibleMasses folds that fused result as a mode query does,
// reading it pending. Each iteration runs on a fresh arena over one
// snapshot, so adoption and composition are paid every time, as per request.
var benchSnap = sync.OnceValues(func() (*Snapshot, error) {
	s, err := census.NewStore("R", 50000, 1)
	if err != nil {
		return nil, err
	}
	if _, err := census.AddNoise(s, "R", 0.001, 1); err != nil {
		return nil, err
	}
	return s.Snapshot(), nil
})

func benchArena(b *testing.B, op func(a *Arena) error) {
	snap, err := benchSnap()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(NewArena(snap)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArenaSelect(b *testing.B) {
	benchArena(b, func(a *Arena) error {
		err := a.Select("res", "R", Eq("CITIZEN", 0))
		return err
	})
}

func BenchmarkArenaProject(b *testing.B) {
	benchArena(b, func(a *Arena) error {
		err := a.Project("res", "R", "POWSTATE")
		return err
	})
}

func BenchmarkArenaSelectProject(b *testing.B) {
	benchArena(b, func(a *Arena) error {
		err := a.SelectProject("res", "R", Eq("CITIZEN", 0), "POWSTATE")
		return err
	})
}

func BenchmarkArenaPossibleMasses(b *testing.B) {
	benchArena(b, func(a *Arena) error {
		if err := a.SelectProject("res", "R", Eq("CITIZEN", 0), "POWSTATE"); err != nil {
			return err
		}
		_, err := a.PossibleMasses("res")
		return err
	})
}

// BenchmarkArenaDifference is native EXCEPT on the same store: R minus its
// CITIZEN = 0 selection, so a quarter of R's rows are candidates for removal
// and the uncertain ones compose with their counterparts.
func BenchmarkArenaDifference(b *testing.B) {
	benchArena(b, func(a *Arena) error {
		if err := a.Select("sel", "R", Eq("CITIZEN", 0)); err != nil {
			return err
		}
		_, err := a.Difference("res", "R", "sel")
		return err
	})
}

// BenchmarkArenaKeptRows is a selection on a seeded random 50k-row store in
// two shapes of the rows it keeps: conf_fold's (a quarter of the rows
// survive, driven by A's posting, and 5 % of the rows hold a placeholder)
// and one where 90 % survive a scan and 0.1 % hold a placeholder. The
// placeholders are in B, which the condition does not read, so the
// selection's uncertain-row cost is finding the kept ones among its
// survivors.
func BenchmarkArenaKeptRows(b *testing.B) {
	shapes := []struct {
		name string
		dom  int     // A's values: A = 0 keeps 1/dom of the rows, A > 0 the rest
		pred Pred    // the selection
		unc  float64 // the share of rows holding a placeholder in B
	}{
		{"survive25_unc5", 4, Eq("A", 0), 0.05},
		{"survive90_unc0.1", 10, Gt("A", 0), 0.001},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			const rows = 50000
			rng := rand.New(rand.NewSource(1))
			cols := [][]int32{make([]int32, rows), make([]int32, rows)}
			for i := range rows {
				cols[0][i], cols[1][i] = int32(rng.Intn(sh.dom)), int32(rng.Intn(97))
			}
			s := NewStore()
			if _, err := s.AddRelation("R", []string{"A", "B"}, cols); err != nil {
				b.Fatal(err)
			}
			for i := range rows {
				if rng.Float64() < sh.unc {
					if err := s.SetUncertain("R", i, "B", []int32{1, 2}, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			snap := s.Snapshot()
			// The first selection builds A's posting.
			if err := NewArena(snap).Select("res", "R", sh.pred); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := NewArena(snap).Select("res", "R", sh.pred); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
