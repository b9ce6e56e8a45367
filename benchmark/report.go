package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// metricDef is one end-to-end metric: its name and unit are fixed (later
// changes cite them) and bound is the share of the parent's median by which
// it may worsen before a change counts as a regression.
type metricDef struct {
	name, unit string
	higher     bool
	bound      float64
	get        func(*e2eResult) float64
}

var e2eMetrics = []metricDef{
	{"qps", "ops/s", true, 0.25, func(r *e2eResult) float64 { return r.QPS }},
	{"p50_ms", "ms", false, 0.25, func(r *e2eResult) float64 { return r.Latency.P50 }},
	{"p95_ms", "ms", false, 0.25, func(r *e2eResult) float64 { return r.Latency.P95 }},
	{"setup_s", "s", false, 0.25, func(r *e2eResult) float64 { return r.SetupS }},
	{"peak_rss_mb", "MiB", false, 0.25, func(r *e2eResult) float64 { return r.PeakRSSMiB }},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractJSON is the one-line result the driver of BENCHMARK.json reads from
// the last line of standard output.
func contractJSON(correct bool, attempted, failed int, metrics map[string]metricValue) string {
	b, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, metrics})
	return string(b)
}

func (r *e2eResult) contractLine() string {
	m := make(map[string]metricValue, len(e2eMetrics))
	for _, d := range e2eMetrics {
		m[d.name] = metricValue{d.get(r), d.unit}
	}
	return contractJSON(r.Correct, r.Attempted, r.Failed, m)
}

func (r *e2eResult) print() {
	fmt.Printf("\n== %s  seed=%d  maybmsd %s  flush: %s\n", r.Workload, r.Seed, strings.Join(r.ServerArgs, " "), r.FlushPolicy)
	fmt.Printf("   store: %d rows, %d or-sets\n", r.Rows, r.OrSets)
	for _, d := range e2eMetrics {
		dir := "lower"
		if d.higher {
			dir = "higher"
		}
		fmt.Printf("   %-12s %12.4f %-6s (%s is better, regression bound %.0f%%)\n", d.name, d.get(r), d.unit, dir, d.bound*100)
	}
	l := r.Latency
	fmt.Printf("   latency samples %d, %d beyond p95", l.N, l.BeyondP95)
	if l.BeyondP95 < tailSamples {
		fmt.Printf(" (FEWER THAN %d: p95 is not supported by this window)", tailSamples)
	}
	fmt.Printf("; ungated: p99_ms %.4f  max_ms %.4f\n", l.P99, l.Max)
	fmt.Printf("   setup_s boots: %.4f; ungated: Conn.Ping round trip %.1f us\n", r.SetupAllS, r.PingUS)
	fmt.Printf("   ops_attempted %d  ops_failed %d %v  answers checked %d (+%d warm-up ops, all checked)\n",
		r.Attempted, r.Failed, r.FailedBy, r.Checked, r.WarmupOps)
	if r.RMoved != "" {
		fmt.Printf("   R's statistics settled during warm-up: %s\n", r.RMoved)
	}
	if r.Restart != nil {
		fmt.Printf("   kill -9 + restart: storage.restart_s %.4f s, %d WAL records replayed, catalog {R}, Q1 unchanged\n",
			r.Restart.RestartS, r.Restart.ReplayedRecords)
	}
	if !r.Correct {
		fmt.Printf("   WRONG: %s\n", r.Wrong)
	} else if r.Wrong != "" {
		fmt.Printf("   %s\n", r.Wrong)
	}
}

// printSpread is the repeatability table: per workload and end-to-end metric
// min / median / max over the repeats and (max − min) ÷ median against the
// metric's bound.
func printSpread(selected []*workload, history map[string][]*e2eResult) {
	fmt.Printf("\n== repeatability over %d runs: (max-min)/median against the bound\n", len(history[selected[0].name]))
	fmt.Printf("%-11s %-12s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, w := range selected {
		for _, d := range e2eMetrics {
			var vals []float64
			for _, r := range history[w.name] {
				vals = append(vals, d.get(r))
			}
			sort.Float64s(vals)
			med := median(vals)
			spread := (vals[len(vals)-1] - vals[0]) / med
			flag := ""
			if spread > d.bound {
				flag = "  EXCEEDS BOUND"
			}
			fmt.Printf("%-11s %-12s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				w.name, d.name, vals[0], med, vals[len(vals)-1], spread*100, d.bound*100, flag)
		}
	}
}
