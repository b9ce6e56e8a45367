// Command benchdiff compares two census-experiment result files
// (BENCH_results.json) and fails when a gated series regressed beyond the
// threshold — the CI bench-regression step.
//
// Gated series and their metrics:
//
//	prepared         mean_run_ns per query (lower is better)
//	conf_bridge      scoped_ns per size (lower is better)
//	conf_single_pass single_pass_ns per size (lower is better)
//	conf_native      native_ns per size (lower is better)
//	except_native    native_ns per size (lower is better)
//	bulk_load        ingest rows/s per size (higher is better)
//	snapshot_restore restore_ns per size (lower is better)
//
// Only files measured on the same host are compared: each file records the
// host that measured it (cores, GOMAXPROCS, Go version), and when the two
// hosts differ, or a file records none, benchdiff prints both and gates
// nothing — a ratio across hosts is not a measurement.
//
// Entries present in only one file are reported but never fail the run
// (series appear and disappear as figures are added) — each skipped point
// and the end-of-run summary name the series that had no baseline, so a
// baseline file predating a series is visible at a glance. Machine-noise is
// tolerated through the threshold (default: fail only on >25% slowdown).
// A zero or negative measurement on either side of a gated point — a
// malformed or truncated results file — is reported and skipped rather than
// divided into a NaN/Inf ratio that would read as a spurious pass or fail.
//
// Usage:
//
//	benchdiff -old baseline.json -new BENCH_results.json [-threshold 0.25]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// host is the measuring machine a results file records.
type host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func (h *host) String() string {
	if h == nil {
		return "none recorded"
	}
	return fmt.Sprintf("cores=%d gomaxprocs=%d %s", h.Cores, h.GOMAXPROCS, h.Go)
}

type results struct {
	Host     *host `json:"host"`
	Prepared []struct {
		Query   string  `json:"query"`
		Rows    int     `json:"rows"`
		Density float64 `json:"density"`
		MeanNS  int64   `json:"mean_run_ns"`
	} `json:"prepared"`
	Conf []struct {
		Rows     int     `json:"rows"`
		Density  float64 `json:"density"`
		ScopedNS int64   `json:"scoped_ns"`
	} `json:"conf_bridge"`
	ConfPass []struct {
		Rows         int     `json:"rows"`
		Density      float64 `json:"density"`
		SinglePassNS int64   `json:"single_pass_ns"`
	} `json:"conf_single_pass"`
	ConfNative []struct {
		Rows     int     `json:"rows"`
		Density  float64 `json:"density"`
		NativeNS int64   `json:"native_ns"`
	} `json:"conf_native"`
	ExceptNative []struct {
		Rows     int     `json:"rows"`
		Density  float64 `json:"density"`
		NativeNS int64   `json:"native_ns"`
	} `json:"except_native"`
	BulkLoad []struct {
		Rows       int     `json:"rows"`
		Density    float64 `json:"density"`
		RowsPerSec float64 `json:"rows_per_sec"`
	} `json:"bulk_load"`
	SnapshotRestore []struct {
		Rows      int     `json:"rows"`
		Density   float64 `json:"density"`
		RestoreNS int64   `json:"restore_ns"`
	} `json:"snapshot_restore"`
}

// point is one gated measurement: a latency in ns (lower is better) or, when
// rate is set, a throughput (higher is better).
type point struct {
	series, key string
	value       float64
	rate        bool
}

// cfg renders the workload parameters of a point; it is part of every
// comparison key, so a baseline measured under a different configuration
// (size or density) reports "(no baseline)" instead of producing a bogus
// ratio.
func cfg(rows int, density float64) string {
	return fmt.Sprintf("%d@%.4g%%", rows, density*100)
}

// points flattens the gated series of a results file, in file order.
func (r *results) points() []point {
	var out []point
	for _, p := range r.Prepared {
		out = append(out, point{"prepared", p.Query + " " + cfg(p.Rows, p.Density), float64(p.MeanNS), false})
	}
	for _, p := range r.Conf {
		out = append(out, point{"conf_bridge", cfg(p.Rows, p.Density), float64(p.ScopedNS), false})
	}
	for _, p := range r.ConfPass {
		out = append(out, point{"conf_single_pass", cfg(p.Rows, p.Density), float64(p.SinglePassNS), false})
	}
	for _, p := range r.ConfNative {
		out = append(out, point{"conf_native", cfg(p.Rows, p.Density), float64(p.NativeNS), false})
	}
	for _, p := range r.ExceptNative {
		out = append(out, point{"except_native", cfg(p.Rows, p.Density), float64(p.NativeNS), false})
	}
	for _, p := range r.BulkLoad {
		out = append(out, point{"bulk_load", cfg(p.Rows, p.Density), p.RowsPerSec, true})
	}
	for _, p := range r.SnapshotRestore {
		out = append(out, point{"snapshot_restore", cfg(p.Rows, p.Density), float64(p.RestoreNS), false})
	}
	return out
}

func parse(data []byte) (*results, error) {
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func load(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compare reports every candidate point against the baseline on w and
// returns how many regressed more than threshold. Files measured on
// different hosts, or without a host record, are not compared at all.
func compare(w io.Writer, oldR, newR *results, oldName string, threshold float64) int {
	if oldR.Host == nil || newR.Host == nil || *oldR.Host != *newR.Host {
		fmt.Fprintf(w, "baseline host:  %s\ncandidate host: %s\n", oldR.Host, newR.Host)
		fmt.Fprintln(w, "benchdiff: not comparable: nothing gated")
		return 0
	}
	baseline := make(map[string]float64)
	for _, p := range oldR.points() {
		baseline[p.series+" "+p.key] = p.value
	}
	regressed := 0
	// A point the baseline lacks is reported and skipped (series and
	// configurations appear and disappear across revisions), and named again
	// in the end-of-run summary.
	missing := make(map[string]int)
	var missingOrder []string
	for _, p := range newR.points() {
		base, ok := baseline[p.series+" "+p.key]
		switch {
		case !ok:
			if missing[p.series] == 0 {
				missingOrder = append(missingOrder, p.series)
			}
			missing[p.series]++
			fmt.Fprintf(w, "%-18s %-28s (no baseline for this %s point)\n", p.series, p.key, p.series)
		case base <= 0 || p.value <= 0:
			// Dividing by a non-positive measurement would turn a broken
			// results file into a 0/NaN/Inf ratio — a spurious pass or fail
			// instead of a visible data problem.
			fmt.Fprintf(w, "%-18s %-28s (skipped: non-positive value — baseline %g, candidate %g)\n", p.series, p.key, base, p.value)
		default:
			// ratio > 1 means the candidate is slower; a throughput is
			// slower when it is lower, so its ratio is inverted.
			ratio := p.value / base
			if p.rate {
				ratio = base / p.value
			}
			verdict := "ok"
			if ratio > 1+threshold {
				verdict = "REGRESSED"
				regressed++
			}
			fmt.Fprintf(w, "%-18s %-28s %+7.1f%%  %s\n", p.series, p.key, (ratio-1)*100, verdict)
		}
	}
	for _, series := range missingOrder {
		fmt.Fprintf(w, "benchdiff: series %s: %d point(s) had no baseline in %s (skipped, not gated)\n", series, missing[series], oldName)
	}
	if regressed == 0 {
		fmt.Fprintln(w, "benchdiff: no regression beyond threshold")
	}
	return regressed
}

func main() {
	oldPath := flag.String("old", "", "baseline results file")
	newPath := flag.String("new", "BENCH_results.json", "candidate results file")
	threshold := flag.Float64("threshold", 0.25, "maximum tolerated slowdown (0.25 = 25%)")
	flag.Parse()
	if *oldPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old is required")
		os.Exit(2)
	}
	oldR, err := load(*oldPath)
	fail(err)
	newR, err := load(*newPath)
	fail(err)

	if regressed := compare(os.Stdout, oldR, newR, *oldPath, *threshold); regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d series regressed more than %.0f%%\n", regressed, *threshold*100)
		os.Exit(1)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
