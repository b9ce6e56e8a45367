// Package bench drives the Section 9 experiments: parameter sweeps over
// relation size and placeholder density that regenerate the data behind
// Figure 26 (chase times), Figure 27 (UWSDT characteristics after chase and
// after each query), Figure 28 (component size distribution) and Figure 30
// (query evaluation times, including the 0% one-world baseline). These are
// the only series it times: the served paths built on the engine (prepared
// statements, native confidence, ingest, restore) are measured by the
// benchmark/ module against the real maybmsd binary.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"maybms/internal/census"
	"maybms/internal/engine"
)

// DefaultDensities are the paper's placeholder densities (fraction of
// fields replaced by or-sets): 0.005%, 0.01%, 0.05%, 0.1%.
var DefaultDensities = []float64{0.00005, 0.0001, 0.0005, 0.001}

// DefaultSizes is a laptop-scale version of the paper's 0.1M–12.5M sweep.
var DefaultSizes = []int{100000, 250000, 500000, 1000000}

// Prepared is a census store with noise added, ready for chasing/querying.
type Prepared struct {
	Store   *engine.Store
	Rows    int
	Density float64
	OrSets  int
}

// Prepare generates a clean census relation R of the given size and
// replaces a density fraction of its fields by or-sets.
func Prepare(rows int, density float64, seed int64) (*Prepared, error) {
	s, err := census.NewStore("R", rows, seed)
	if err != nil {
		return nil, err
	}
	n, err := census.AddNoise(s, "R", density, seed+1)
	if err != nil {
		return nil, err
	}
	return &Prepared{Store: s, Rows: rows, Density: density, OrSets: n}, nil
}

// ChasePoint is one measurement of Figure 26.
type ChasePoint struct {
	Rows    int
	Density float64
	OrSets  int
	Elapsed time.Duration
}

// Fig26Chase measures the time to chase the twelve dependencies of
// Figure 25 for every (size, density) combination. As in the paper's
// setting, the underlying data is known to satisfy the dependencies, so the
// chase visits only placeholder-carrying rows (AssumeClean); its cost is
// then driven by the number of or-sets — the shape of Figure 26.
func Fig26Chase(sizes []int, densities []float64, seed int64) ([]ChasePoint, error) {
	deps := census.Dependencies()
	var out []ChasePoint
	for _, n := range sizes {
		for _, d := range densities {
			p, err := Prepare(n, d, seed)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if err := p.Store.ChaseEGDsOpt("R", deps, engine.ChaseOptions{AssumeClean: true}); err != nil {
				return nil, err
			}
			out = append(out, ChasePoint{Rows: n, Density: d, OrSets: p.OrSets, Elapsed: time.Since(start)})
		}
	}
	return out, nil
}

// Fig27Row is one row of the Figure 27 table: the representation
// characteristics of a relation after a pipeline stage.
type Fig27Row struct {
	Density float64
	Stage   string // "initial", "chase", "Q1".."Q6"
	Stats   engine.Stats
}

// Fig27Characteristics reproduces the Figure 27 table for one relation
// size: UWSDT characteristics after noise, after the chase, and after each
// of the six queries.
func Fig27Characteristics(rows int, densities []float64, seed int64) ([]Fig27Row, error) {
	deps := census.Dependencies()
	var out []Fig27Row
	for _, d := range densities {
		p, err := Prepare(rows, d, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig27Row{Density: d, Stage: "initial", Stats: p.Store.Stats("R")})
		if err := p.Store.ChaseEGDs("R", deps); err != nil {
			return nil, err
		}
		out = append(out, Fig27Row{Density: d, Stage: "chase", Stats: p.Store.Stats("R")})
		for _, q := range census.QueryNames {
			// Each query runs on a private arena over a snapshot — the
			// session execution model — so the chased store stays pristine
			// and dropping the result is free.
			res := "res" + q
			ar := engine.NewArena(p.Store.Snapshot())
			if err := census.Run(ar, q, "R", res); err != nil {
				return nil, err
			}
			out = append(out, Fig27Row{Density: d, Stage: q, Stats: ar.Stats(res)})
		}
	}
	return out, nil
}

// Fig28Row is one row of Figure 28: the component size distribution of a
// chased relation.
type Fig28Row struct {
	Rows    int
	Density float64
	// Hist maps component size (placeholders per component) to count.
	Hist map[int]int
}

// Fig28Distribution reproduces Figure 28 for the given sizes and densities.
func Fig28Distribution(sizes []int, densities []float64, seed int64) ([]Fig28Row, error) {
	deps := census.Dependencies()
	var out []Fig28Row
	for _, n := range sizes {
		for _, d := range densities {
			p, err := Prepare(n, d, seed)
			if err != nil {
				return nil, err
			}
			if err := p.Store.ChaseEGDs("R", deps); err != nil {
				return nil, err
			}
			out = append(out, Fig28Row{Rows: n, Density: d, Hist: p.Store.ComponentSizeHistogram("R")})
		}
	}
	return out, nil
}

// QueryPoint is one measurement of Figure 30.
type QueryPoint struct {
	Query   string
	Rows    int
	Density float64 // 0 = one-world baseline
	Elapsed time.Duration
	Result  engine.Stats
}

// Fig30Queries measures query evaluation time for Q1–Q6 over chased stores
// of every size and density. Density 0 is the paper's one-world baseline:
// the identical queries on a certain relation.
func Fig30Queries(sizes []int, densities []float64, seed int64) ([]QueryPoint, error) {
	deps := census.Dependencies()
	var out []QueryPoint
	for _, n := range sizes {
		for _, d := range densities {
			p, err := Prepare(n, d, seed)
			if err != nil {
				return nil, err
			}
			if d > 0 {
				if err := p.Store.ChaseEGDs("R", deps); err != nil {
					return nil, err
				}
			}
			for _, q := range census.QueryNames {
				// Timed region covers the session execution model: snapshot
				// acquisition (O(1)), the operators on a private arena, and
				// nothing else — releasing the result is dropping the arena.
				res := "res" + q
				start := time.Now()
				ar := engine.NewArena(p.Store.Snapshot())
				if err := census.Run(ar, q, "R", res); err != nil {
					return nil, err
				}
				elapsed := time.Since(start)
				out = append(out, QueryPoint{
					Query: q, Rows: n, Density: d,
					Elapsed: elapsed, Result: ar.Stats(res),
				})
			}
		}
	}
	return out, nil
}

// PrintFig26 renders the chase measurements as the paper's series.
func PrintFig26(w io.Writer, points []ChasePoint) {
	fmt.Fprintln(w, "Figure 26 — chase time for the 12 dependencies of Figure 25")
	fmt.Fprintf(w, "%12s %10s %10s %12s\n", "tuples", "density", "or-sets", "time")
	for _, p := range points {
		fmt.Fprintf(w, "%12d %9.3f%% %10d %12s\n", p.Rows, p.Density*100, p.OrSets, p.Elapsed.Round(time.Millisecond))
	}
}

// PrintFig27 renders the characteristics table in the layout of Figure 27.
func PrintFig27(w io.Writer, rows []Fig27Row) {
	fmt.Fprintln(w, "Figure 27 — UWSDT characteristics (per density: initial, after chase, after Q1–Q6)")
	fmt.Fprintf(w, "%8s %-8s %10s %10s %12s %12s\n", "density", "stage", "#comp", "#comp>1", "|C|", "|R|")
	for _, r := range rows {
		fmt.Fprintf(w, "%7.3f%% %-8s %10d %10d %12d %12d\n",
			r.Density*100, r.Stage, r.Stats.NumComp, r.Stats.NumCompGT1, r.Stats.CSize, r.Stats.RSize)
	}
}

// PrintFig28 renders the component size distribution of Figure 28.
func PrintFig28(w io.Writer, rows []Fig28Row) {
	fmt.Fprintln(w, "Figure 28 — distribution of component size after the chase")
	fmt.Fprintf(w, "%12s %10s %10s %10s %10s %12s\n", "tuples", "density", "size 1", "size 2", "size 3", "size 4+")
	for _, r := range rows {
		var s4 int
		sizes := engine.HistogramSizes(r.Hist)
		for _, k := range sizes {
			if k >= 4 {
				s4 += r.Hist[k]
			}
		}
		fmt.Fprintf(w, "%12d %9.3f%% %10d %10d %10d %12d\n",
			r.Rows, r.Density*100, r.Hist[1], r.Hist[2], r.Hist[3], s4)
	}
}

// PrintFig30 renders the query timing series of Figure 30, grouped by query.
func PrintFig30(w io.Writer, points []QueryPoint) {
	fmt.Fprintln(w, "Figure 30 — query evaluation time (density 0% = one world)")
	byQuery := map[string][]QueryPoint{}
	var names []string
	for _, p := range points {
		if _, ok := byQuery[p.Query]; !ok {
			names = append(names, p.Query)
		}
		byQuery[p.Query] = append(byQuery[p.Query], p)
	}
	sort.Strings(names)
	for _, q := range names {
		fmt.Fprintf(w, "(%s)\n", q)
		fmt.Fprintf(w, "%12s %10s %12s %12s\n", "tuples", "density", "time", "|R| result")
		for _, p := range byQuery[q] {
			fmt.Fprintf(w, "%12d %9.3f%% %12s %12d\n",
				p.Rows, p.Density*100, p.Elapsed.Round(time.Microsecond), p.Result.RSize)
		}
	}
}
