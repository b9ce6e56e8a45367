package sql_test

import (
	"sync"
	"testing"

	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/sql"
)

// BenchmarkShardedCommit times q5_session's commit pair in memory: one
// MATERIALIZE of Figure 29's Q2 and its DROP on a 50k-row census DB on two
// shards, with no query reading the shard set in between. It uses only the
// DB's exported surface, so it runs unchanged on older trees.
//
//	go test -run '^$' -bench ShardedCommit -benchmem ./internal/sql
func BenchmarkShardedCommit(b *testing.B) {
	s, err := census.NewStore("R", 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := census.AddNoise(s, "R", 0.001, 2); err != nil {
		b.Fatal(err)
	}
	db := sql.Open(s)
	if err := db.EnableSharding(2, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Materialize("q2", census.SQL["Q2"]); err != nil {
			b.Fatal(err)
		}
		if err := db.DropRelation("q2"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterializeQ3 times the writer-lock section of q5_session's
// MATERIALIZE of Figure 29's Q3, a chain of two selections and a
// projection, and its DROP, on a 50k-row census DB with 0.1% or-set noise.
// It uses only the DB's exported surface, so it runs unchanged on older
// trees.
//
//	go test -run '^$' -bench MaterializeQ3 -benchmem ./internal/sql
func BenchmarkMaterializeQ3(b *testing.B) {
	s, err := census.NewStore("R", 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := census.AddNoise(s, "R", 0.001, 2); err != nil {
		b.Fatal(err)
	}
	db := sql.Open(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Materialize("q3", census.SQL["Q3"]); err != nil {
			b.Fatal(err)
		}
		if err := db.DropRelation("q3"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalog times one CATALOG reply on q5_session's catalog: the
// 50k-row census DB after one MATERIALIZE of Figure 29's Q2. It uses only
// the DB's exported surface, so it runs unchanged on older trees.
//
//	go test -run '^$' -bench Catalog -benchmem ./internal/sql
func BenchmarkCatalog(b *testing.B) {
	s, err := census.NewStore("R", 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := census.AddNoise(s, "R", 0.001, 2); err != nil {
		b.Fatal(err)
	}
	db := sql.Open(s)
	if _, err := db.Materialize("q2", census.SQL["Q2"]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(db.Catalog()) != 2 {
			b.Fatal("want R and q2 in the catalog")
		}
	}
}

// selectMixDB is select_mix's store: 100k census rows with 0.1% or-set noise
// and the Figure 25 cleaning chase, as maybmsd serves it.
var selectMixDB = sync.OnceValues(func() (*sql.DB, error) {
	s, err := census.NewStore("R", 100000, 1)
	if err != nil {
		return nil, err
	}
	if _, err := census.AddNoise(s, "R", 0.001, 2); err != nil {
		return nil, err
	}
	if err := s.ChaseEGDsOpt("R", census.Dependencies(), engine.ChaseOptions{AssumeClean: true}); err != nil {
		return nil, err
	}
	return sql.Open(s), nil
})

// BenchmarkSelectMix times each Figure 29 statement of select_mix in
// process: DB.Query on one shard, the result drained block by block as the
// server pages it. It uses only the DB's exported surface, so it runs
// unchanged on older trees.
//
//	go test -run '^$' -bench SelectMix -benchmem ./internal/sql
func BenchmarkSelectMix(b *testing.B) {
	db, err := selectMixDB()
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []string{"Q1", "Q2", "Q3", "Q4", "Q6"} {
		b.Run(q, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := db.Query(census.SQL[q])
				if err != nil {
					b.Fatal(err)
				}
				for rows.NextBlock(1024).N > 0 {
				}
				rows.Close()
			}
		})
	}
}

// confFoldStmts are conf_fold's statements: POSSIBLE and CERTAIN
// projections folding about 1e5 qualifying rows to 59-295 answers.
var confFoldStmts = []string{
	"SELECT POSSIBLE POWSTATE FROM R WHERE CITIZEN = 0",
	"SELECT POSSIBLE POWSTATE, MARITAL FROM R WHERE FERTIL > 4",
	"SELECT CERTAIN POWSTATE FROM R WHERE CITIZEN = 0",
}

// BenchmarkConfFold times conf_fold's three statements in process, one
// after the other per op: DB.Query on 250k census rows with 0.1% or-set
// noise and the Figure 25 cleaning chase, on two shards, each result
// drained block by block. It uses only the DB's exported surface, so it
// runs unchanged on older trees.
//
//	go test -run '^$' -bench ConfFold -benchmem ./internal/sql
func BenchmarkConfFold(b *testing.B) {
	s, err := census.NewStore("R", 250000, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := census.AddNoise(s, "R", 0.001, 2); err != nil {
		b.Fatal(err)
	}
	if err := s.ChaseEGDsOpt("R", census.Dependencies(), engine.ChaseOptions{AssumeClean: true}); err != nil {
		b.Fatal(err)
	}
	db := sql.Open(s)
	if err := db.EnableSharding(2, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range confFoldStmts {
			rows, err := db.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			for rows.NextBlock(1024).N > 0 {
			}
			rows.Close()
		}
	}
}
