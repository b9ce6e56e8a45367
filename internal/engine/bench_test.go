package engine_test

import (
	"sync"
	"testing"

	"maybms/internal/census"
	. "maybms/internal/engine"
)

// The operator layer of the read path on one conf_fold shard's shape: 50k
// census rows x 50 columns with 0.1% or-set noise. The selection keeps
// CITIZEN = 0 (about a quarter of the rows) and the projection keeps
// POWSTATE; PossibleMasses folds that fused result. Each iteration runs on a
// fresh arena over one snapshot, so adoption and composition are paid every
// time, as per request.
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
	snap, err := benchSnap()
	if err != nil {
		b.Fatal(err)
	}
	a := NewArena(snap)
	if err := a.SelectProject("res", "R", Eq("CITIZEN", 0), "POWSTATE"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PossibleMasses(a, "res"); err != nil {
			b.Fatal(err)
		}
	}
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
