package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"maybms/internal/bridge"
	"maybms/internal/census"
	"maybms/internal/relation"
	"maybms/internal/sql"
	"maybms/internal/worlds"
)

// This file measures the engine-path EXCEPT (the native difference operator
// of Figure 9, engine.Difference) against the per-world evaluator that used
// to be the only way to run it: the same statement evaluated world by world
// over the explicitly enumerated world-set. The per-world side is only
// feasible at all on enumerable world counts, so the series fixes the
// number of or-sets per store rather than a density fraction — the world
// count, not the relation size, is what explodes.

// ExceptPoint is one EXCEPT measurement: the same census EXCEPT statement
// run natively on the columnar engine and per world over the enumerated
// world-set, with both results checked equal.
type ExceptPoint struct {
	Rows    int
	Density float64
	OrSets  int
	// Worlds is the enumerated world count the per-world evaluator pays for.
	Worlds     int
	ResultRows int
	Native     time.Duration
	PerWorld   time.Duration
}

// exceptQuery is the measured statement: the tuples not matched by a Q1-style
// condition — difference between a base relation and a selection over it,
// the canonical EXCEPT shape.
const exceptQuery = "SELECT * FROM R EXCEPT SELECT * FROM R WHERE CITIZEN = 0"

// exceptPerWorld is exceptQuery as the relational algebra tree the per-world
// evaluator runs.
var exceptPerWorld = worlds.Difference{
	L: worlds.Base{Rel: "R"},
	R: worlds.Select{Q: worlds.Base{Rel: "R"}, Pred: relation.Eq("CITIZEN", 0)},
}

// ExceptNative measures both paths for one census configuration. The store
// carries exactly orsets or-sets of size 2–3 placed on seeded positions —
// half of them on the selection attribute, so the right arm's membership is
// genuinely uncertain and the difference must reason per local world —
// which keeps the world count enumerable (≤ 3^orsets) at every relation
// size. The timed native region is the session execution model — snapshot,
// arena operators, Rows.Close — averaged over reps; the per-world region is
// the evaluation over a pre-built world-set (its enumeration cost is not
// even charged to it). Both paths' results are compared world for world
// before the point is reported.
func ExceptNative(rows, orsets int, seed int64, reps int) (ExceptPoint, error) {
	store, err := census.NewStore("R", rows, seed)
	if err != nil {
		return ExceptPoint{}, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	selAttr, err := attrIdxOf("CITIZEN")
	if err != nil {
		return ExceptPoint{}, err
	}
	type pos struct{ row, attr int }
	taken := make(map[pos]bool, orsets)
	for placed := 0; placed < orsets; placed++ {
		at := selAttr
		if placed%2 == 1 {
			at = rng.Intn(len(census.Attrs))
		}
		pt := pos{row: rng.Intn(rows), attr: at}
		if taken[pt] || census.Attrs[pt.attr].Domain < 2 {
			placed--
			continue
		}
		taken[pt] = true
		r := store.Rel("R")
		truth := r.Cols[pt.attr][pt.row]
		vals := []int32{truth}
		seen := map[int32]bool{truth: true}
		k := 2 + rng.Intn(2)
		if int32(k) > census.Attrs[pt.attr].Domain {
			k = int(census.Attrs[pt.attr].Domain)
		}
		for len(vals) < k {
			v := int32(rng.Intn(int(census.Attrs[pt.attr].Domain)))
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		if err := store.SetUncertain("R", pt.row, census.Attrs[pt.attr].Name, vals, nil); err != nil {
			return ExceptPoint{}, err
		}
	}
	if err := store.ChaseEGDs("R", census.Dependencies()); err != nil {
		return ExceptPoint{}, err
	}
	p := &Prepared{Store: store, Rows: rows, Density: float64(orsets) / float64(rows*len(census.Attrs)), OrSets: orsets}
	pt := ExceptPoint{Rows: rows, Density: p.Density, OrSets: p.OrSets}

	db := sql.Open(p.Store)
	defer db.Close()
	stmt, err := db.Prepare(exceptQuery)
	if err != nil {
		return ExceptPoint{}, err
	}
	// Warm up once (plan binding, arena pool), then measure.
	if r, err := stmt.Query(); err != nil {
		return ExceptPoint{}, err
	} else if err := r.Close(); err != nil {
		return ExceptPoint{}, err
	}
	var total time.Duration
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		r, err := stmt.Query()
		if err != nil {
			return ExceptPoint{}, err
		}
		elapsed := time.Since(start)
		if err := r.Close(); err != nil {
			return ExceptPoint{}, err
		}
		total += elapsed
	}
	pt.Native = total / time.Duration(reps)

	// The per-world evaluator's input: the world-set of R, enumerated through
	// the scoped bridge. Built outside the timed region — the engine path
	// needs nothing comparable, so charging it would only pad the ratio.
	ws, err := bridge.RepRelation(p.Store, "R", 1<<16)
	if err != nil {
		return ExceptPoint{}, err
	}
	pt.Worlds = ws.Size()
	start := time.Now()
	perWorld, err := worlds.EvalWorldSet(exceptPerWorld, ws, "exceptres")
	if err != nil {
		return ExceptPoint{}, err
	}
	pt.PerWorld = time.Since(start)

	// Differential check: the committed native result denotes the same
	// world-set as the per-world evaluation.
	res, err := db.Materialize("exceptres", exceptQuery)
	if err != nil {
		return ExceptPoint{}, err
	}
	defer db.DropRelation("exceptres")
	pt.ResultRows = res.Stats.RSize
	native, err := bridge.RepRelation(p.Store, "exceptres", 1<<16)
	if err != nil {
		return ExceptPoint{}, err
	}
	if !native.Equal(perWorld, 1e-9) {
		return ExceptPoint{}, fmt.Errorf("bench: EXCEPT paths disagree at %d rows / %d or-sets", rows, p.OrSets)
	}
	return pt, nil
}

// attrIdxOf returns the index of a census attribute by name, or an error —
// a silent fallback would seed the or-sets on the wrong attribute and turn
// the series into a wrong-but-green measurement.
func attrIdxOf(name string) (int, error) {
	for i, a := range census.Attrs {
		if a.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("bench: unknown census attribute %q", name)
}

// PrintExcept renders the native-vs-per-world EXCEPT comparison.
func PrintExcept(w io.Writer, points []ExceptPoint) {
	fmt.Fprintln(w, "EXCEPT — native difference operator vs per-world evaluation (same statement)")
	fmt.Fprintf(w, "%12s %10s %8s %8s %12s %12s %12s %10s\n",
		"tuples", "density", "or-sets", "worlds", "|result|", "native", "per world", "speedup")
	for _, p := range points {
		speedup := float64(p.PerWorld) / float64(p.Native)
		fmt.Fprintf(w, "%12d %9.4f%% %8d %8d %12d %12s %12s %9.1fx\n",
			p.Rows, p.Density*100, p.OrSets, p.Worlds, p.ResultRows,
			p.Native.Round(time.Microsecond), p.PerWorld.Round(time.Microsecond), speedup)
	}
}
