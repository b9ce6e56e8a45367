// Command census-experiment regenerates the tables and series behind the
// paper's evaluation (Section 9): Figure 26 (chase times), Figure 27 (UWSDT
// characteristics), Figure 28 (component size distribution) and Figure 30
// (query evaluation times, with the 0% one-world baseline). Further figures
// measure the engine paths built on them: "prepared" runs the Figure 29
// queries as prepared statements through DB/Stmt/Rows (plan once, run many,
// including a parameterized plan bound with different values per run),
// "conf" compares the scoped CONF() bridge (only components reachable from
// the result) against converting the whole store, the single-pass confidence
// computation against the per-tuple rescan it replaced, and the native
// columnar confidence path (conf_native, no WSD at all) against the scoped
// bridge, "except" compares the native difference operator (engine-path
// EXCEPT, except_native) against per-world evaluation of the same statement
// over enumerated world-sets, "load" measures bulk ingest (internal/storage's
// BulkLoader against the row-at-a-time path it replaced) and "restore"
// measures loading a binary snapshot against re-ingesting and re-chasing the
// same store. Throughput and latency of the served path are measured by the
// benchmark/ module against the real maybmsd binary, not here.
//
// Usage:
//
//	census-experiment -fig 26 [-sizes 100000,500000] [-densities 0.00005,0.001] [-seed 42]
//	census-experiment -fig all -sizes 250000
//	census-experiment -fig 30 -json results.json
//	census-experiment -fig prepared -reps 10
//	census-experiment -fig conf
//	census-experiment -fig prepared,conf,except
//
// Densities are fractions (0.001 = 0.1%). The paper's sweep is 0.1M–12.5M
// tuples at densities 0.005%–0.1%; defaults here are laptop-scale.
//
// Besides the printed tables, the measurements of every figure that ran are
// written as machine-readable JSON (default BENCH_results.json; -json ""
// disables) so the performance trajectory can be tracked across revisions.
// The file's "host" object records the measuring host; cmd/benchdiff gates
// only results measured on the same host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"maybms/internal/bench"
	"maybms/internal/engine"
)

// benchJSON is the machine-readable result file: one entry per measurement,
// durations in nanoseconds and fractional milliseconds.
type benchJSON struct {
	Host      hostJSON         `json:"host"`
	Seed      int64            `json:"seed"`
	Sizes     []int            `json:"sizes"`
	Densities []float64        `json:"densities"`
	Chase     []chaseJSON      `json:"chase,omitempty"`      // Figure 26
	Stats     []statsJSON      `json:"stats,omitempty"`      // Figure 27
	Hist      []histJSON       `json:"components,omitempty"` // Figure 28
	Queries   []queryJSON      `json:"queries,omitempty"`    // Figure 30
	Prepared  []preparedJSON   `json:"prepared,omitempty"`   // session API, plan once / run many
	Conf      []confBridgeJSON `json:"conf_bridge,omitempty"`
	ConfPass  []confPassJSON   `json:"conf_single_pass,omitempty"`
	// ConfNative is the PR 4 series: confidence computed natively on the
	// columnar engine vs the WSD bridge, on the same materialized result.
	ConfNative []confNativeJSON `json:"conf_native,omitempty"`
	// ExceptNative is the PR 5 series: EXCEPT run natively on the columnar
	// engine (engine.Difference) vs the per-world evaluator it replaced.
	ExceptNative []exceptJSON `json:"except_native,omitempty"`
	// BulkLoad and SnapshotRestore are the PR 7 durability series: the bulk
	// loader against the row-at-a-time ingest it replaced, and a snapshot
	// restore against re-ingest + re-chase.
	BulkLoad        []bulkLoadJSON `json:"bulk_load,omitempty"`
	SnapshotRestore []restoreJSON  `json:"snapshot_restore,omitempty"`
}

// hostJSON identifies the machine and toolchain that measured a results
// file: timings from different hosts are not comparable.
type hostJSON struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

type bulkLoadJSON struct {
	Rows       int     `json:"rows"`
	Density    float64 `json:"density"`
	OrSets     int     `json:"or_sets"`
	BulkNS     int64   `json:"bulk_ns"`
	PerRowNS   int64   `json:"per_row_ns"`
	Speedup    float64 `json:"speedup"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

type restoreJSON struct {
	Rows       int     `json:"rows"`
	Density    float64 `json:"density"`
	OrSets     int     `json:"or_sets"`
	Bytes      int     `json:"bytes"`
	RestoreNS  int64   `json:"restore_ns"`
	RestoreMS  float64 `json:"restore_ms"`
	ReingestNS int64   `json:"reingest_ns"`
	Speedup    float64 `json:"speedup"`
}

type exceptJSON struct {
	Rows       int     `json:"rows"`
	Density    float64 `json:"density"`
	OrSets     int     `json:"or_sets"`
	Worlds     int     `json:"worlds"`
	ResultRows int     `json:"result_rows"`
	NativeNS   int64   `json:"native_ns"`
	PerWorldNS int64   `json:"per_world_ns"`
	Speedup    float64 `json:"speedup"`
}

type confNativeJSON struct {
	Rows       int     `json:"rows"`
	Density    float64 `json:"density"`
	ResultRows int     `json:"result_rows"`
	Tuples     int     `json:"tuples"`
	NativeNS   int64   `json:"native_ns"`
	BridgeNS   int64   `json:"bridge_ns"`
	EndToEndNS int64   `json:"end_to_end_ns"`
	Speedup    float64 `json:"speedup"`
}

type confPassJSON struct {
	Rows         int     `json:"rows"`
	Density      float64 `json:"density"`
	ResultRows   int     `json:"result_rows"`
	Tuples       int     `json:"tuples"`
	SinglePassNS int64   `json:"single_pass_ns"`
	PerTupleNS   int64   `json:"per_tuple_ns"`
	Speedup      float64 `json:"speedup"`
}

type preparedJSON struct {
	Query     string  `json:"query"`
	Rows      int     `json:"rows"`
	Density   float64 `json:"density"`
	Reps      int     `json:"reps"`
	PrepareNS int64   `json:"prepare_ns"`
	FirstNS   int64   `json:"first_run_ns"`
	MeanNS    int64   `json:"mean_run_ns"`
	MeanMS    float64 `json:"mean_run_ms"`
}

type confBridgeJSON struct {
	Rows       int     `json:"rows"`
	Density    float64 `json:"density"`
	ResultRows int     `json:"result_rows"`
	ScopedNS   int64   `json:"scoped_ns"`
	FullNS     int64   `json:"full_store_ns"`
	Speedup    float64 `json:"speedup"`
}

type chaseJSON struct {
	Rows      int     `json:"rows"`
	Density   float64 `json:"density"`
	OrSets    int     `json:"or_sets"`
	ElapsedNS int64   `json:"elapsed_ns"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

type statsJSON struct {
	Density float64      `json:"density"`
	Stage   string       `json:"stage"`
	Stats   engine.Stats `json:"stats"`
}

type histJSON struct {
	Rows    int         `json:"rows"`
	Density float64     `json:"density"`
	Hist    map[int]int `json:"hist"`
}

type queryJSON struct {
	Query     string       `json:"query"`
	Rows      int          `json:"rows"`
	Density   float64      `json:"density"`
	ElapsedNS int64        `json:"elapsed_ns"`
	ElapsedMS float64      `json:"elapsed_ms"`
	Stats     engine.Stats `json:"stats"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func main() {
	fig := flag.String("fig", "all", "comma-separated figures to regenerate: 26, 27, 28, 30, prepared, conf, except, load, restore or all")
	sizesFlag := flag.String("sizes", "", "comma-separated relation sizes (default 100000,250000,500000,1000000)")
	densFlag := flag.String("densities", "", "comma-separated densities as fractions (default 0.00005,0.0001,0.0005,0.001)")
	seed := flag.Int64("seed", 42, "random seed")
	reps := flag.Int("reps", 5, "executions per prepared statement (-fig prepared)")
	jsonPath := flag.String("json", "BENCH_results.json", "write machine-readable results to this file (empty disables)")
	flag.Parse()

	sizes := bench.DefaultSizes
	if *sizesFlag != "" {
		var err error
		sizes, err = parseInts(*sizesFlag)
		fail(err)
	}
	densities := bench.DefaultDensities
	if *densFlag != "" {
		var err error
		densities, err = parseFloats(*densFlag)
		fail(err)
	}

	out := benchJSON{
		Host: hostJSON{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()},
		Seed: *seed, Sizes: sizes, Densities: densities,
	}
	wanted := make(map[string]bool)
	known := map[string]bool{"all": true, "26": true, "27": true, "28": true, "30": true, "prepared": true, "conf": true, "except": true, "load": true, "restore": true}
	for _, f := range strings.Split(*fig, ",") {
		f = strings.TrimSpace(f)
		if !known[f] {
			fmt.Fprintf(os.Stderr, "census-experiment: unknown figure %q (want 26, 27, 28, 30, prepared, conf, except, load, restore or all)\n", f)
			os.Exit(2)
		}
		wanted[f] = true
	}
	run := func(name string) bool { return wanted["all"] || wanted[name] }
	if run("26") {
		points, err := bench.Fig26Chase(sizes, densities, *seed)
		fail(err)
		bench.PrintFig26(os.Stdout, points)
		fmt.Println()
		for _, p := range points {
			out.Chase = append(out.Chase, chaseJSON{
				Rows: p.Rows, Density: p.Density, OrSets: p.OrSets,
				ElapsedNS: p.Elapsed.Nanoseconds(), ElapsedMS: ms(p.Elapsed),
			})
		}
	}
	if run("27") {
		rows, err := bench.Fig27Characteristics(sizes[len(sizes)-1], densities, *seed)
		fail(err)
		fmt.Printf("(%d tuples)\n", sizes[len(sizes)-1])
		bench.PrintFig27(os.Stdout, rows)
		fmt.Println()
		for _, r := range rows {
			out.Stats = append(out.Stats, statsJSON{Density: r.Density, Stage: r.Stage, Stats: r.Stats})
		}
	}
	if run("28") {
		rows, err := bench.Fig28Distribution(sizes, densities, *seed)
		fail(err)
		bench.PrintFig28(os.Stdout, rows)
		fmt.Println()
		for _, r := range rows {
			out.Hist = append(out.Hist, histJSON{Rows: r.Rows, Density: r.Density, Hist: r.Hist})
		}
	}
	if run("30") {
		points, err := bench.Fig30Queries(sizes, append([]float64{0}, densities...), *seed)
		fail(err)
		bench.PrintFig30(os.Stdout, points)
		for _, p := range points {
			out.Queries = append(out.Queries, queryJSON{
				Query: p.Query, Rows: p.Rows, Density: p.Density,
				ElapsedNS: p.Elapsed.Nanoseconds(), ElapsedMS: ms(p.Elapsed),
				Stats: p.Result,
			})
		}
	}
	if run("prepared") {
		// Prepared statements run at the first configured size: the point is
		// the plan/run split, not another size sweep.
		points, err := bench.PreparedQueries(sizes[0], densities[len(densities)-1], *seed, *reps)
		fail(err)
		bench.PrintPrepared(os.Stdout, points)
		fmt.Println()
		for _, p := range points {
			out.Prepared = append(out.Prepared, preparedJSON{
				Query: p.Query, Rows: p.Rows, Density: p.Density, Reps: p.Reps,
				PrepareNS: p.Prepare.Nanoseconds(), FirstNS: p.First.Nanoseconds(),
				MeanNS: p.Mean.Nanoseconds(), MeanMS: ms(p.Mean),
			})
		}
	}
	if run("conf") {
		// The whole-store bridge is the quadratic baseline the scoped bridge
		// replaces; keep its sizes small so the comparison terminates.
		var points []bench.ConfBridgePoint
		for _, n := range []int{500, 1000, 2000} {
			p, err := bench.ConfBridge(n, densities[len(densities)-1], *seed)
			fail(err)
			points = append(points, p)
		}
		bench.PrintConfBridge(os.Stdout, points)
		fmt.Println()
		for _, p := range points {
			out.Conf = append(out.Conf, confBridgeJSON{
				Rows: p.Rows, Density: p.Density, ResultRows: p.ResultRows,
				ScopedNS: p.Scoped.Nanoseconds(), FullNS: p.Full.Nanoseconds(),
				Speedup: float64(p.Full) / float64(p.Scoped),
			})
		}
		// The single-pass confidence computation scales to larger results
		// than the bridge comparison (no whole-store baseline involved).
		var passPoints []bench.ConfPassPoint
		for _, n := range []int{2000, 5000, 10000} {
			p, err := bench.ConfSinglePass(n, densities[len(densities)-1], *seed)
			fail(err)
			passPoints = append(passPoints, p)
		}
		bench.PrintConfSinglePass(os.Stdout, passPoints)
		fmt.Println()
		for _, p := range passPoints {
			out.ConfPass = append(out.ConfPass, confPassJSON{
				Rows: p.Rows, Density: p.Density, ResultRows: p.ResultRows, Tuples: p.Tuples,
				SinglePassNS: p.SinglePass.Nanoseconds(), PerTupleNS: p.PerTuple.Nanoseconds(),
				Speedup: float64(p.PerTuple) / float64(p.SinglePass),
			})
		}
		// The native columnar path (PR 4) is measured at the conf_bridge
		// sizes so the series are directly comparable point by point: the
		// speedup of conf_native over the conf_bridge scoped numbers is
		// the headline of the PR.
		var nativePoints []bench.ConfNativePoint
		for _, n := range []int{500, 1000, 2000} {
			p, err := bench.ConfNative(n, densities[len(densities)-1], *seed)
			fail(err)
			nativePoints = append(nativePoints, p)
		}
		bench.PrintConfNative(os.Stdout, nativePoints)
		fmt.Println()
		for _, p := range nativePoints {
			out.ConfNative = append(out.ConfNative, confNativeJSON{
				Rows: p.Rows, Density: p.Density, ResultRows: p.ResultRows, Tuples: p.Tuples,
				NativeNS: p.Native.Nanoseconds(), BridgeNS: p.Bridge.Nanoseconds(),
				EndToEndNS: p.EndToEnd.Nanoseconds(),
				Speedup:    float64(p.Bridge) / float64(p.Native),
			})
		}
	}
	if run("except") {
		// EXCEPT runs at the conf_bridge sizes: small enough that the
		// per-world baseline can enumerate its world-set, large enough that
		// the native operator's candidate pruning is what is measured. The
		// or-set count is fixed (not the density) because the world count is
		// what the per-world side pays for.
		var points []bench.ExceptPoint
		for _, n := range []int{500, 1000, 2000} {
			p, err := bench.ExceptNative(n, 3, *seed, *reps)
			fail(err)
			points = append(points, p)
		}
		bench.PrintExcept(os.Stdout, points)
		fmt.Println()
		for _, p := range points {
			out.ExceptNative = append(out.ExceptNative, exceptJSON{
				Rows: p.Rows, Density: p.Density, OrSets: p.OrSets, Worlds: p.Worlds,
				ResultRows: p.ResultRows,
				NativeNS:   p.Native.Nanoseconds(), PerWorldNS: p.PerWorld.Nanoseconds(),
				Speedup: float64(p.PerWorld) / float64(p.Native),
			})
		}
	}
	if run("load") {
		points, err := bench.BulkIngest(sizes, densities, *seed)
		fail(err)
		bench.PrintBulkLoad(os.Stdout, points)
		fmt.Println()
		for _, p := range points {
			out.BulkLoad = append(out.BulkLoad, bulkLoadJSON{
				Rows: p.Rows, Density: p.Density, OrSets: p.OrSets,
				BulkNS: p.Bulk.Nanoseconds(), PerRowNS: p.PerRow.Nanoseconds(),
				Speedup: p.Speedup, RowsPerSec: p.RowsPerSec,
			})
		}
	}
	if run("restore") {
		points, err := bench.SnapshotRestore(sizes, densities, *seed)
		fail(err)
		bench.PrintRestore(os.Stdout, points)
		fmt.Println()
		for _, p := range points {
			out.SnapshotRestore = append(out.SnapshotRestore, restoreJSON{
				Rows: p.Rows, Density: p.Density, OrSets: p.OrSets, Bytes: p.Bytes,
				RestoreNS: p.Restore.Nanoseconds(), RestoreMS: ms(p.Restore),
				ReingestNS: p.Reingest.Nanoseconds(), Speedup: p.Speedup,
			})
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		fail(err)
		fail(os.WriteFile(*jsonPath, append(data, '\n'), 0o644))
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad density %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "census-experiment:", err)
		os.Exit(1)
	}
}
