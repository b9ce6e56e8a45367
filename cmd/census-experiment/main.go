// Command census-experiment regenerates the tables and series behind the
// paper's evaluation (Section 9): Figure 26 (chase times), Figure 27 (UWSDT
// characteristics), Figure 28 (component size distribution) and Figure 30
// (query evaluation times, with the 0% one-world baseline). Throughput and
// latency of the served path are measured by the benchmark/ module against
// the real maybmsd binary, not here.
//
// Usage:
//
//	census-experiment -fig 26 [-sizes 100000,500000] [-densities 0.00005,0.001] [-seed 42]
//	census-experiment -fig all -sizes 250000
//	census-experiment -fig 30 -json results.json
//
// Densities are fractions (0.001 = 0.1%). The paper's sweep is 0.1M–12.5M
// tuples at densities 0.005%–0.1%; defaults here are laptop-scale.
//
// Besides the printed tables, the measurements of every figure that ran are
// written as machine-readable JSON (default BENCH_results.json; -json ""
// disables). The committed BENCH_results.json is the paper-reproduction
// record; its "host" object records the measuring host, since timings from
// different hosts are not comparable.
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
	Host      hostJSON    `json:"host"`
	Seed      int64       `json:"seed"`
	Sizes     []int       `json:"sizes"`
	Densities []float64   `json:"densities"`
	Chase     []chaseJSON `json:"chase,omitempty"`      // Figure 26
	Stats     []statsJSON `json:"stats,omitempty"`      // Figure 27
	Hist      []histJSON  `json:"components,omitempty"` // Figure 28
	Queries   []queryJSON `json:"queries,omitempty"`    // Figure 30
}

// hostJSON identifies the machine and toolchain that measured a results
// file: timings from different hosts are not comparable.
type hostJSON struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
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
	fig := flag.String("fig", "all", "comma-separated figures to regenerate: 26, 27, 28, 30 or all")
	sizesFlag := flag.String("sizes", "", "comma-separated relation sizes (default 100000,250000,500000,1000000)")
	densFlag := flag.String("densities", "", "comma-separated densities as fractions (default 0.00005,0.0001,0.0005,0.001)")
	seed := flag.Int64("seed", 42, "random seed")
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
	known := map[string]bool{"all": true, "26": true, "27": true, "28": true, "30": true}
	for _, f := range strings.Split(*fig, ",") {
		f = strings.TrimSpace(f)
		if !known[f] {
			fmt.Fprintf(os.Stderr, "census-experiment: unknown figure %q (want 26, 27, 28, 30 or all)\n", f)
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
