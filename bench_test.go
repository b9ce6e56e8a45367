package maybms

// Benchmarks regenerating the paper's evaluation (Section 9), one family per
// figure, plus ablation benches for the design decisions called out in
// DESIGN.md. Figures 27 and 28 are characteristics tables rather than
// timings: their benchmarks measure the pipeline that produces them and
// attach the table values as custom metrics; cmd/census-experiment prints
// the full tables.
//
// Sizes here are laptop-scale (the paper sweeps 0.1M–12.5M tuples on a Xeon
// with PostgreSQL; see DESIGN.md for the substitution argument). The shapes
// — linear scaling in size and density, UWSDT ≈ one-world query time, result
// representations close to a single world — are asserted in
// internal/bench's tests and visible in these numbers.

import (
	"fmt"
	"testing"
	"time"

	"maybms/internal/bench"
	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/orset"
	"maybms/internal/relation"
	"maybms/internal/worlds"
)

var benchSizes = []int{25000, 100000}

var benchDensities = []float64{0.00005, 0.001} // 0.005% and 0.1%

// prepared caches noisy stores per (rows, density) so b.N iterations chase
// fresh clones without regenerating data.
func preparedStore(b *testing.B, rows int, density float64, chased bool) *engine.Store {
	b.Helper()
	p, err := bench.Prepare(rows, density, 42)
	if err != nil {
		b.Fatal(err)
	}
	if chased && density > 0 {
		if err := p.Store.ChaseEGDs("R", census.Dependencies()); err != nil {
			b.Fatal(err)
		}
	}
	return p.Store
}

// BenchmarkFig26Chase regenerates Figure 26: time to chase the twelve
// dependencies of Figure 25, for relation sizes × placeholder densities.
func BenchmarkFig26Chase(b *testing.B) {
	for _, rows := range benchSizes {
		for _, d := range benchDensities {
			b.Run(fmt.Sprintf("rows=%d/density=%.3f%%", rows, d*100), func(b *testing.B) {
				deps := census.Dependencies()
				base, err := bench.Prepare(rows, d, 42)
				if err != nil {
					b.Fatal(err)
				}
				// ns/op includes the untimed-in-spirit store clone (the
				// chase is destructive); the paper-relevant number is the
				// chase-ns/op metric measured around the chase alone.
				var chaseNS int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := base.Store.Clone()
					start := time.Now()
					if err := s.ChaseEGDsOpt("R", deps, engine.ChaseOptions{AssumeClean: true}); err != nil {
						b.Fatal(err)
					}
					chaseNS += time.Since(start).Nanoseconds()
				}
				b.ReportMetric(float64(chaseNS)/float64(b.N), "chase-ns/op")
			})
		}
	}
}

// BenchmarkFig27Characteristics regenerates the Figure 27 table: it runs the
// noise → chase → stats pipeline and reports #comp, #comp>1, |C| and |R| as
// custom metrics.
func BenchmarkFig27Characteristics(b *testing.B) {
	for _, d := range benchDensities {
		b.Run(fmt.Sprintf("density=%.3f%%", d*100), func(b *testing.B) {
			var st engine.Stats
			for i := 0; i < b.N; i++ {
				s := preparedStore(b, benchSizes[len(benchSizes)-1], d, true)
				st = s.Stats("R")
			}
			b.ReportMetric(float64(st.NumComp), "comps")
			b.ReportMetric(float64(st.NumCompGT1), "comps>1")
			b.ReportMetric(float64(st.CSize), "|C|")
			b.ReportMetric(float64(st.RSize), "|R|")
		})
	}
}

// BenchmarkFig28Distribution regenerates Figure 28: the component size
// distribution after the chase, reported as custom metrics.
func BenchmarkFig28Distribution(b *testing.B) {
	for _, d := range benchDensities {
		b.Run(fmt.Sprintf("density=%.3f%%", d*100), func(b *testing.B) {
			var hist map[int]int
			for i := 0; i < b.N; i++ {
				s := preparedStore(b, benchSizes[len(benchSizes)-1], d, true)
				hist = s.ComponentSizeHistogram("R")
			}
			b.ReportMetric(float64(hist[1]), "size1")
			b.ReportMetric(float64(hist[2]), "size2")
			b.ReportMetric(float64(hist[3]), "size3")
		})
	}
}

// BenchmarkFig30 regenerates Figure 30 (a)–(f): evaluation time of the six
// Figure 29 queries on chased UWSDTs across sizes and densities, with the
// 0% density series as the paper's one-world baseline.
func BenchmarkFig30(b *testing.B) {
	densities := append([]float64{0}, benchDensities...)
	for _, q := range census.QueryNames {
		for _, rows := range benchSizes {
			for _, d := range densities {
				name := fmt.Sprintf("%s/rows=%d/density=%.3f%%", q, rows, d*100)
				b.Run(name, func(b *testing.B) {
					s := preparedStore(b, rows, d, true)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ar := engine.NewArena(s.Snapshot())
						if err := census.Run(ar, q, "R", "res"); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkAblationChaseRefined compares the paper-faithful chase (composes
// the components of every dependency attribute, materializing certain
// fields) against the fully refined chase of Section 8 (composes only
// uncertain fields). Same semantics, different representation sizes and
// times — the trade-off Figure 27's #comp>1 column quantifies.
func BenchmarkAblationChaseRefined(b *testing.B) {
	deps := census.Dependencies()
	for _, mode := range []string{"paper", "refined"} {
		b.Run(mode, func(b *testing.B) {
			base, err := bench.Prepare(benchSizes[0], 0.001, 42)
			if err != nil {
				b.Fatal(err)
			}
			var st engine.Stats
			var chaseNS int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := base.Store.Clone()
				start := time.Now()
				if mode == "paper" {
					err = s.ChaseEGDs("R", deps)
				} else {
					err = s.ChaseEGDsRefined("R", deps)
				}
				if err != nil {
					b.Fatal(err)
				}
				chaseNS += time.Since(start).Nanoseconds()
				st = s.Stats("R")
			}
			b.ReportMetric(float64(chaseNS)/float64(b.N), "chase-ns/op")
			b.ReportMetric(float64(st.NumCompGT1), "comps>1")
			b.ReportMetric(float64(st.CSize), "|C|")
		})
	}
}

// BenchmarkAblationChaseOrder measures the impact of dependency order on
// decomposition size (Figure 23): chasing in Figure 25's order versus
// reversed. The world-set is identical; the representation differs.
func BenchmarkAblationChaseOrder(b *testing.B) {
	forward := census.Dependencies()
	backward := make([]engine.EGD, len(forward))
	for i, d := range forward {
		backward[len(forward)-1-i] = d
	}
	for _, order := range []struct {
		name string
		deps []engine.EGD
	}{{"paper-order", forward}, {"reversed", backward}} {
		b.Run(order.name, func(b *testing.B) {
			base, err := bench.Prepare(benchSizes[0], 0.001, 42)
			if err != nil {
				b.Fatal(err)
			}
			var st engine.Stats
			var chaseNS int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := base.Store.Clone()
				start := time.Now()
				if err := s.ChaseEGDs("R", order.deps); err != nil {
					b.Fatal(err)
				}
				chaseNS += time.Since(start).Nanoseconds()
				st = s.Stats("R")
			}
			b.ReportMetric(float64(chaseNS)/float64(b.N), "chase-ns/op")
			b.ReportMetric(float64(st.CSize), "|C|")
		})
	}
}

// BenchmarkAblationFieldVsTupleLevel quantifies design decision 1 of
// DESIGN.md: field-level or-set components (linear in the or-set relation,
// Example 1) versus a tuple-level encoding that enumerates whole-tuple
// alternatives (exponential in the number of uncertain fields per tuple, as
// in ULDB-style tuple alternatives).
func BenchmarkAblationFieldVsTupleLevel(b *testing.B) {
	const tuples = 200
	const orSetsPerTuple = 4 // 3 alternatives each → 81 tuple-level rows
	build := func() *orset.Relation {
		r := orset.New("R", "A", "B", "C", "D", "E")
		for i := 0; i < tuples; i++ {
			fields := make([]orset.Field, 5)
			for j := range fields {
				if j < orSetsPerTuple {
					fields[j] = orset.OrInts(int64(j), int64(j+1), int64(j+2))
				} else {
					fields[j] = orset.Certain(relation.Int(int64(i)))
				}
			}
			if err := r.Add(fields...); err != nil {
				b.Fatal(err)
			}
		}
		return r
	}
	b.Run("field-level", func(b *testing.B) {
		size := 0
		for i := 0; i < b.N; i++ {
			w, err := build().ToWSD()
			if err != nil {
				b.Fatal(err)
			}
			size = 0
			for _, c := range w.Comps {
				size += c.Arity() * c.Size()
			}
		}
		b.ReportMetric(float64(size), "cells")
	})
	b.Run("tuple-level", func(b *testing.B) {
		size := 0
		for i := 0; i < b.N; i++ {
			r := build()
			// Tuple-level: one component per tuple holding the product of
			// its or-sets.
			size = 0
			for _, t := range r.Tuples {
				rows := 1
				for _, f := range t {
					rows *= len(f.Values)
				}
				size += rows * len(t)
			}
		}
		b.ReportMetric(float64(size), "cells")
	})
}

// BenchmarkAblationTemplateVsPlain quantifies design decision 2 of
// DESIGN.md: the representation size of a mostly-certain relation as a
// UWSDT (template + small component store) versus a plain WSD with one
// component per field.
func BenchmarkAblationTemplateVsPlain(b *testing.B) {
	mk := func() *engine.Store {
		p, err := bench.Prepare(benchSizes[0], 0.001, 42)
		if err != nil {
			b.Fatal(err)
		}
		return p.Store
	}
	b.Run("uwsdt-template", func(b *testing.B) {
		var cells int
		for i := 0; i < b.N; i++ {
			s := mk()
			st := s.Stats("R")
			cells = st.CSize // only uncertain fields cost component rows
		}
		b.ReportMetric(float64(cells), "component-cells")
	})
	b.Run("plain-wsd", func(b *testing.B) {
		var cells int
		for i := 0; i < b.N; i++ {
			s := mk()
			st := s.Stats("R")
			// A plain WSD stores every field in a component: one cell per
			// certain field plus the or-set cells.
			cells = st.RSize*len(census.Attrs) - s.TotalPlaceholders("R") + st.CSize
		}
		b.ReportMetric(float64(cells), "component-cells")
	})
}

// BenchmarkWorldSetRelationBaseline measures the explicit world-set
// relation (Section 1's strawman) against the WSD representation on the
// introduction's census example scaled up: k tuples with one 2-way or-set
// each, i.e. 2^k worlds.
func BenchmarkWorldSetRelationBaseline(b *testing.B) {
	const k = 14 // 16384 worlds
	build := func() *orset.Relation {
		r := orset.New("R", "S", "N", "M")
		for i := 0; i < k; i++ {
			if err := r.Add(
				orset.OrInts(int64(100+i), int64(700+i)),
				orset.Certain(relation.Int(int64(i))),
				orset.Certain(relation.Int(1)),
			); err != nil {
				b.Fatal(err)
			}
		}
		return r
	}
	b.Run("wsd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := build().ToWSD(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("world-set-relation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w, err := build().ToWSD()
			if err != nil {
				b.Fatal(err)
			}
			ws, err := w.Rep(1 << 20)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := worlds.WorldSetRelation(ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}
