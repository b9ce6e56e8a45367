package server_test

import (
	"testing"

	"maybms/internal/bench"
	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/server"
	"maybms/internal/server/client"
	"maybms/internal/sql"
)

// BenchmarkWideFetchWire is the wire layer of the wide_fetch workload: a
// prepared SELECT * returning ~24.5k rows × 50 columns of the chased 100k-row
// census store, executed and drained through Next/Scan into *relation.Value
// over loopback to an in-process server. B/op and allocs/op count both ends
// of the connection.
func BenchmarkWideFetchWire(b *testing.B) {
	p, err := bench.Prepare(100000, 0.001, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Store.ChaseEGDsOpt("R", census.Dependencies(), engine.ChaseOptions{AssumeClean: true}); err != nil {
		b.Fatal(err)
	}
	db := sql.Open(p.Store)
	defer db.Close()
	_, addr := startServer(b, db, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare("SELECT * FROM R WHERE CITIZEN = 0")
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]relation.Value, len(st.Columns()))
	dests := make([]any, len(vals))
	for i := range vals {
		dests[i] = &vals[i]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := st.Query()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for rows.Next() {
			if err := rows.Scan(dests...); err != nil {
				b.Fatal(err)
			}
			n++
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
		rows.Close()
		if n != rows.Len() || n == 0 {
			b.Fatalf("drained %d of %d rows", n, rows.Len())
		}
	}
}
