package bench

import (
	"fmt"
	"io"
	"time"

	"maybms/internal/bridge"
	"maybms/internal/census"
	"maybms/internal/confidence"
	"maybms/internal/engine"
	"maybms/internal/sql"
)

// This file measures the session API (internal/sql's DB/Prepared/Rows): the
// plan-once/run-many behavior of prepared statements over the Figure 29
// workload, and the effect of scoping the WSD bridge for CONF() to the
// result relation instead of converting the whole store.

// PreparedPoint is one plan-once/run-many measurement: a Figure 29 query
// prepared once and executed reps times through the session API.
type PreparedPoint struct {
	Query   string
	Rows    int
	Density float64
	Reps    int
	// Prepare is the one-time parse+plan cost; First the first execution
	// (which warms nothing: plans are bound per run); Mean the mean over
	// all reps.
	Prepare time.Duration
	First   time.Duration
	Mean    time.Duration
}

// PreparedQueries prepares each Figure 29 query once on a chased census
// store and executes it reps times, recording plan and run times. Q5 runs
// over q2 and q3 materialized through the same session. The final entry,
// "Q1(θ=?)", binds a parameterized Q1 with a different YEARSCH value per
// repetition — one plan, many bindings.
func PreparedQueries(rows int, density float64, seed int64, reps int) ([]PreparedPoint, error) {
	p, err := Prepare(rows, density, seed)
	if err != nil {
		return nil, err
	}
	if err := p.Store.ChaseEGDs("R", census.Dependencies()); err != nil {
		return nil, err
	}
	db := sql.Open(p.Store)
	defer db.Close()
	if _, err := db.Materialize("q2", census.SQL["Q2"]); err != nil {
		return nil, err
	}
	defer db.DropRelation("q2")
	if _, err := db.Materialize("q3", census.SQL["Q3"]); err != nil {
		return nil, err
	}
	defer db.DropRelation("q3")

	var out []PreparedPoint
	run := func(label, text string, argFor func(rep int) []any) error {
		start := time.Now()
		stmt, err := db.Prepare(text)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		pt := PreparedPoint{Query: label, Rows: rows, Density: density, Reps: reps, Prepare: time.Since(start)}
		var total time.Duration
		for rep := 0; rep < reps; rep++ {
			start = time.Now()
			rows, err := stmt.Query(argFor(rep)...)
			if err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
			if err := rows.Close(); err != nil {
				return err
			}
			elapsed := time.Since(start)
			total += elapsed
			if rep == 0 {
				pt.First = elapsed
			}
		}
		pt.Mean = total / time.Duration(reps)
		out = append(out, pt)
		return nil
	}
	none := func(int) []any { return nil }
	for _, q := range census.QueryNames {
		if err := run(q, census.SQL[q], none); err != nil {
			return nil, err
		}
	}
	err = run("Q1(θ=?)", "SELECT * FROM R WHERE YEARSCH = ? AND CITIZEN = 0",
		func(rep int) []any { return []any{10 + rep%8} })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PrintPrepared renders the plan-once/run-many table.
func PrintPrepared(w io.Writer, points []PreparedPoint) {
	fmt.Fprintln(w, "Prepared statements — plan once, run many (session API)")
	fmt.Fprintf(w, "%-10s %12s %10s %12s %12s %12s %6s\n",
		"query", "tuples", "density", "prepare", "first run", "mean run", "reps")
	for _, p := range points {
		fmt.Fprintf(w, "%-10s %12d %9.3f%% %12s %12s %12s %6d\n",
			p.Query, p.Rows, p.Density*100,
			p.Prepare.Round(time.Microsecond), p.First.Round(time.Microsecond),
			p.Mean.Round(time.Microsecond), p.Reps)
	}
}

// ConfBridgePoint compares CONF() bridge strategies on one store: Scoped
// converts only the components reachable from the result relation (the
// session path), Full converts the whole store (the pre-session behavior).
type ConfBridgePoint struct {
	Rows    int
	Density float64
	// ResultRows is the size of the query result the bridge converts.
	ResultRows int
	Scoped     time.Duration
	Full       time.Duration
}

// ConfBridge measures both bridge strategies for the confidence computation
// of a selective query (Q1's condition) over a chased census store. Keep
// rows modest: the full bridge materializes one component per certain field
// — 50·rows components — which is exactly the cost the scoped bridge
// avoids.
func ConfBridge(rows int, density float64, seed int64) (ConfBridgePoint, error) {
	p, err := Prepare(rows, density, seed)
	if err != nil {
		return ConfBridgePoint{}, err
	}
	if err := p.Store.ChaseEGDs("R", census.Dependencies()); err != nil {
		return ConfBridgePoint{}, err
	}
	db := sql.Open(p.Store)
	defer db.Close()
	res, err := db.Materialize("confres", census.SQL["Q1"])
	if err != nil {
		return ConfBridgePoint{}, err
	}
	defer db.DropRelation("confres")
	pt := ConfBridgePoint{Rows: rows, Density: density, ResultRows: res.Stats.RSize}

	start := time.Now()
	w, err := bridge.ToWSDOf(p.Store, "confres")
	if err != nil {
		return ConfBridgePoint{}, err
	}
	scoped, err := confidence.PossibleP(w, "confres")
	if err != nil {
		return ConfBridgePoint{}, err
	}
	pt.Scoped = time.Since(start)

	start = time.Now()
	w, err = bridge.ToWSD(p.Store)
	if err != nil {
		return ConfBridgePoint{}, err
	}
	full, err := confidence.PossibleP(w, "confres")
	if err != nil {
		return ConfBridgePoint{}, err
	}
	pt.Full = time.Since(start)
	if len(scoped) != len(full) {
		return ConfBridgePoint{}, fmt.Errorf("bench: bridge strategies disagree: %d vs %d tuples", len(scoped), len(full))
	}
	return pt, nil
}

// PrintConfBridge renders the bridge comparison.
func PrintConfBridge(w io.Writer, points []ConfBridgePoint) {
	fmt.Fprintln(w, "CONF() bridge scoping — result-reachable components vs whole store")
	fmt.Fprintf(w, "%12s %10s %12s %12s %12s %10s\n",
		"tuples", "density", "|result|", "scoped", "full store", "speedup")
	for _, p := range points {
		speedup := float64(p.Full) / float64(p.Scoped)
		fmt.Fprintf(w, "%12d %9.3f%% %12d %12s %12s %9.1fx\n",
			p.Rows, p.Density*100, p.ResultRows,
			p.Scoped.Round(time.Microsecond), p.Full.Round(time.Microsecond), speedup)
	}
}

// ConfPassPoint compares confidence-computation strategies on one query
// result: SinglePass is confidence.PossibleP (tuple-level view built once,
// all tuples scored in one sweep), PerTuple the pre-optimization
// composition (Possible, then Conf per tuple — which re-clones the WSD and
// re-scans every component per answer).
type ConfPassPoint struct {
	Rows       int
	Density    float64
	ResultRows int
	Tuples     int
	SinglePass time.Duration
	PerTuple   time.Duration
}

// ConfSinglePass measures both strategies for the confidence table of Q1's
// result over a chased census store and checks they agree.
func ConfSinglePass(rows int, density float64, seed int64) (ConfPassPoint, error) {
	p, err := Prepare(rows, density, seed)
	if err != nil {
		return ConfPassPoint{}, err
	}
	if err := p.Store.ChaseEGDs("R", census.Dependencies()); err != nil {
		return ConfPassPoint{}, err
	}
	db := sql.Open(p.Store)
	defer db.Close()
	res, err := db.Materialize("confres", census.SQL["Q1"])
	if err != nil {
		return ConfPassPoint{}, err
	}
	defer db.DropRelation("confres")
	pt := ConfPassPoint{Rows: rows, Density: density, ResultRows: res.Stats.RSize}
	w, err := bridge.ToWSDOf(p.Store, "confres")
	if err != nil {
		return ConfPassPoint{}, err
	}

	start := time.Now()
	tcs, err := confidence.PossibleP(w, "confres")
	if err != nil {
		return ConfPassPoint{}, err
	}
	pt.SinglePass = time.Since(start)
	pt.Tuples = len(tcs)

	start = time.Now()
	poss, err := confidence.Possible(w, "confres")
	if err != nil {
		return ConfPassPoint{}, err
	}
	perTuple := make([]confidence.TupleConf, 0, poss.Size())
	for _, t := range poss.SortedTuples() {
		c, err := confidence.Conf(w, "confres", t)
		if err != nil {
			return ConfPassPoint{}, err
		}
		perTuple = append(perTuple, confidence.TupleConf{Tuple: t, Conf: c})
	}
	pt.PerTuple = time.Since(start)

	if len(perTuple) != len(tcs) {
		return ConfPassPoint{}, fmt.Errorf("bench: confidence strategies disagree: %d vs %d tuples", len(tcs), len(perTuple))
	}
	for i := range tcs {
		if d := tcs[i].Conf - perTuple[i].Conf; d > 1e-9 || d < -1e-9 {
			return ConfPassPoint{}, fmt.Errorf("bench: confidence strategies disagree on %v: %g vs %g", tcs[i].Tuple, tcs[i].Conf, perTuple[i].Conf)
		}
	}
	return pt, nil
}

// PrintConfSinglePass renders the confidence strategy comparison.
func PrintConfSinglePass(w io.Writer, points []ConfPassPoint) {
	fmt.Fprintln(w, "CONF() computation — single pass over the tuple-level view vs per-tuple rescan")
	fmt.Fprintf(w, "%12s %10s %12s %8s %12s %12s %10s\n",
		"tuples", "density", "|result|", "answers", "single pass", "per tuple", "speedup")
	for _, p := range points {
		speedup := float64(p.PerTuple) / float64(p.SinglePass)
		fmt.Fprintf(w, "%12d %9.3f%% %12d %8d %12s %12s %9.1fx\n",
			p.Rows, p.Density*100, p.ResultRows, p.Tuples,
			p.SinglePass.Round(time.Microsecond), p.PerTuple.Round(time.Microsecond), speedup)
	}
}

// ConfNativePoint compares the native columnar confidence computation (PR 4)
// against the WSD-bridge path it replaced, on the same materialized query
// result: Native is engine PossibleP on the snapshot (tuple-level view and
// single sweep entirely in FieldID/component structures), Bridge is the
// scoped ToWSDOf conversion plus confidence.PossibleP (the committed
// conf_bridge baseline). EndToEnd measures census.ConfQuery — operators plus
// native confidence through one pooled arena — the full CONF() query shape.
type ConfNativePoint struct {
	Rows       int
	Density    float64
	ResultRows int
	Tuples     int
	Native     time.Duration
	Bridge     time.Duration
	EndToEnd   time.Duration
}

// ConfNative measures both confidence strategies for Q1's result over a
// chased census store and checks they agree tuple for tuple.
func ConfNative(rows int, density float64, seed int64) (ConfNativePoint, error) {
	p, err := Prepare(rows, density, seed)
	if err != nil {
		return ConfNativePoint{}, err
	}
	if err := p.Store.ChaseEGDs("R", census.Dependencies()); err != nil {
		return ConfNativePoint{}, err
	}
	db := sql.Open(p.Store)
	defer db.Close()
	res, err := db.Materialize("confres", census.SQL["Q1"])
	if err != nil {
		return ConfNativePoint{}, err
	}
	defer db.DropRelation("confres")
	pt := ConfNativePoint{Rows: rows, Density: density, ResultRows: res.Stats.RSize}
	snap := p.Store.Snapshot()

	start := time.Now()
	native, err := engine.PossibleP(snap, "confres")
	if err != nil {
		return ConfNativePoint{}, err
	}
	pt.Native = time.Since(start)
	pt.Tuples = len(native)

	start = time.Now()
	w, err := bridge.ToWSDOf(p.Store, "confres")
	if err != nil {
		return ConfNativePoint{}, err
	}
	bridge, err := confidence.PossibleP(w, "confres")
	if err != nil {
		return ConfNativePoint{}, err
	}
	pt.Bridge = time.Since(start)

	if len(native) != len(bridge) {
		return ConfNativePoint{}, fmt.Errorf("bench: confidence paths disagree: native %d tuples, bridge %d", len(native), len(bridge))
	}
	for i := range native {
		for j, v := range native[i].Tuple {
			if bv := bridge[i].Tuple[j]; bv.IsBottom() || bv.AsInt() != int64(v) {
				return ConfNativePoint{}, fmt.Errorf("bench: confidence paths disagree at row %d: native tuple %v, bridge %v", i, native[i].Tuple, bridge[i].Tuple)
			}
		}
		if d := native[i].Conf - bridge[i].Conf; d > 1e-9 || d < -1e-9 {
			return ConfNativePoint{}, fmt.Errorf("bench: confidence paths disagree on %v: native %g, bridge %g", native[i].Tuple, native[i].Conf, bridge[i].Conf)
		}
	}

	start = time.Now()
	if _, err := census.ConfQuery(p.Store, "Q1", "R"); err != nil {
		return ConfNativePoint{}, err
	}
	pt.EndToEnd = time.Since(start)
	return pt, nil
}

// PrintConfNative renders the native-vs-bridge confidence comparison.
func PrintConfNative(w io.Writer, points []ConfNativePoint) {
	fmt.Fprintln(w, "CONF() native columnar computation vs WSD bridge (same materialized result)")
	fmt.Fprintf(w, "%12s %10s %12s %8s %12s %12s %10s %12s\n",
		"tuples", "density", "|result|", "answers", "native", "bridge", "speedup", "query+conf")
	for _, p := range points {
		speedup := float64(p.Bridge) / float64(p.Native)
		fmt.Fprintf(w, "%12d %9.3f%% %12d %8d %12s %12s %9.1fx %12s\n",
			p.Rows, p.Density*100, p.ResultRows, p.Tuples,
			p.Native.Round(time.Microsecond), p.Bridge.Round(time.Microsecond),
			speedup, p.EndToEnd.Round(time.Microsecond))
	}
}
