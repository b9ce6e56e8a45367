// Census runs a scaled-down version of the Section 9 experiment: generate an
// IPUMS-style census relation, inject reading-ambiguity noise as or-sets,
// clean it with the twelve dependencies of Figure 25, and evaluate the six
// queries of Figure 29, reporting the UWSDT characteristics of Figure 27
// along the way. It closes with the interactive view the MayBMS prototype
// offered: a SQL session over the same store, with a prepared parameterized
// statement executed under several bindings — one plan, many runs.
package main

import (
	"fmt"
	"log"
	"time"

	"maybms"
	"maybms/internal/bench"
	"maybms/internal/census"
	"maybms/internal/engine"
)

func main() {
	const rows = 200000
	const density = 0.0005 // 0.05%

	fmt.Printf("census: %d tuples × %d attributes, %.3f%% noise\n", rows, len(census.Attrs), density*100)
	p, err := bench.Prepare(rows, density, 7)
	must(err)
	st := p.Store.Stats("R")
	fmt.Printf("initial UWSDT: %d or-sets → #comp=%d |C|=%d |R|=%d\n",
		p.OrSets, st.NumComp, st.CSize, st.RSize)

	start := time.Now()
	must(p.Store.ChaseEGDsOpt("R", census.Dependencies(), engine.ChaseOptions{AssumeClean: true}))
	st = p.Store.Stats("R")
	fmt.Printf("chase (%d deps) in %s: #comp=%d #comp>1=%d |C|=%d\n",
		len(census.Dependencies()), time.Since(start).Round(time.Millisecond),
		st.NumComp, st.NumCompGT1, st.CSize)
	fmt.Printf("component sizes after chase: %v\n\n", p.Store.ComponentSizeHistogram("R"))

	fmt.Printf("%-4s %10s %10s %8s %8s %10s\n", "Q", "time", "|R|result", "#comp", "#comp>1", "|C|")
	for _, q := range census.QueryNames {
		// Each query runs on a private arena over a snapshot: the chased
		// store stays pristine and dropping the result is dropping the arena.
		res := "res" + q
		start := time.Now()
		ar := engine.NewArena(p.Store.Snapshot())
		must(census.Run(ar, q, "R", res))
		elapsed := time.Since(start)
		rs := ar.Stats(res)
		fmt.Printf("%-4s %10s %10d %8d %8d %10d\n",
			q, elapsed.Round(time.Microsecond), rs.RSize, rs.NumComp, rs.NumCompGT1, rs.CSize)
	}
	fmt.Println("\nresult representations stay close to a single world (Figure 27),")
	fmt.Println("and query time tracks the one-world baseline (Figure 30).")

	// The session API over the same store: prepare once, bind per run. The
	// result lifecycle is scoped to the Rows — Close drops every relation
	// the query created, so the store stays clean under repeated queries.
	fmt.Println("\nSQL session: SELECT * FROM R WHERE YEARSCH = ? AND CITIZEN = 0")
	db := maybms.Open(p.Store)
	defer db.Close()
	stmt, err := db.Prepare("SELECT * FROM R WHERE YEARSCH = ? AND CITIZEN = 0")
	must(err)
	for _, yearsch := range []int{15, 16, 17} {
		start := time.Now()
		rows, err := stmt.Query(yearsch)
		must(err)
		rs := rows.Stats()
		must(rows.Close())
		fmt.Printf("  YEARSCH=%d: |R|=%d #comp=%d in %s (plan reused, result dropped on Close)\n",
			yearsch, rs.RSize, rs.NumComp, time.Since(start).Round(time.Microsecond))
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
