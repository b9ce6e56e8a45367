package shard

import (
	"testing"

	"maybms/internal/census"
	"maybms/internal/engine"
)

// BenchmarkResync measures the re-balance layer on the store the q5_session
// workload serves: 50k census rows x 50 columns with 0.1% or-set noise, two
// shards. after-materialize and after-drop time the one Resync that follows
// a commit of Figure 29's Q2 (a selection + projection of R) and the one
// that follows dropping it again; from-scratch times shard.New.
func BenchmarkResync(b *testing.B) {
	authority, err := census.NewStore("R", 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := census.AddNoise(authority, "R", 0.001, 1); err != nil {
		b.Fatal(err)
	}
	materialize := func(b *testing.B) {
		a := engine.NewArena(authority.Snapshot())
		if err := census.Q2(a, "R", "q2"); err != nil {
			b.Fatal(err)
		}
		if err := a.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	resync := func(b *testing.B, sh *Store) {
		if err := sh.Resync(); err != nil {
			b.Fatal(err)
		}
	}
	// cycle runs MATERIALIZE, Resync, DROP, Resync with the timer on only
	// around the Resync under test.
	cycle := func(b *testing.B, timeMaterialize bool) {
		sh, err := New(authority, 2, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			materialize(b)
			if timeMaterialize {
				b.StartTimer()
			}
			resync(b, sh)
			b.StopTimer()
			authority.DropRelation("q2")
			if !timeMaterialize {
				b.StartTimer()
			}
			resync(b, sh)
			b.StartTimer()
		}
	}
	b.Run("after-materialize", func(b *testing.B) { cycle(b, true) })
	b.Run("after-drop", func(b *testing.B) { cycle(b, false) })
	b.Run("from-scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(authority, 2, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
