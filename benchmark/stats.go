package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a percentile before the
// benchmark reports it: fewer, and the figure is one or two slow requests.
const tailSamples = 10

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of an ascending
// sample, and the number of samples strictly beyond that rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted) - rank
}

// latencySummary describes the latency samples of one run, in milliseconds.
// BeyondP95 is how many samples lie beyond the p95 rank; p99 and max are
// printed but never gated.
type latencySummary struct {
	N         int     `json:"samples"`
	P50       float64 `json:"p50_ms"`
	P95       float64 `json:"p95_ms"`
	BeyondP95 int     `json:"samples_beyond_p95"`
	P99       float64 `json:"p99_ms"`
	Max       float64 `json:"max_ms"`
}

func summarize(ms []float64) latencySummary {
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	s := latencySummary{N: len(sorted)}
	if s.N == 0 {
		return s
	}
	s.P50, _ = percentile(sorted, 0.50)
	s.P95, s.BeyondP95 = percentile(sorted, 0.95)
	s.P99, _ = percentile(sorted, 0.99)
	s.Max = sorted[s.N-1]
	return s
}

func median(v []float64) float64 {
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
