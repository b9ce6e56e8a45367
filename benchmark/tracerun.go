package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/server"
	"maybms/internal/server/client"
	"maybms/internal/shard"
	"maybms/internal/sql"
	"maybms/internal/storage"
)

// The traced run replays connection 0's request stream in process, one
// request at a time, four times over: stepped through the layers with spans
// on, stepped with spans off (the difference is the tracing overhead),
// through the session API as maybmsd calls it (the in-process latency the
// stepped path must reproduce), and through an in-process server over
// loopback (the difference to the session API is the wire's share).
const (
	// replayOps caps each replay; the --seconds budget, split over the four
	// replays, usually ends them first on the slow workloads.
	replayOps       = 200
	replayCycles    = 50 // q5_session
	adhocReps       = 20 // Parse / CompileEngine / cached Prepare timings per statement
	minOpsPerReplay = 5
)

// layerMetric is one per-layer metric of BENCHMARK.json; higher says which
// direction is better.
type layerMetric struct {
	name, unit string
	higher     bool
}

// layerMetrics fixes the names and the print order. README.md says which
// end-to-end metric each should move, and on which workload.
var layerMetrics = []layerMetric{
	{"sql.parse_us", "us", false}, {"sql.compile_us", "us", false}, {"sql.prepare_cached_us", "us", false}, {"sql.bind_us", "us", false},
	{"engine.snapshot_us", "us", false}, {"engine.arena_us", "us", false}, {"engine.run_ms", "ms", false}, {"engine.scan_ms", "ms", false},
	{"engine.view_ms", "ms", false}, {"engine.fold_ms", "ms", false}, {"engine.commit_ms", "ms", false},
	{"engine.rows_out", "rows/op", false}, {"engine.arena_bytes", "bytes/op", false},
	{"shard.fanout_ms", "ms", false}, {"shard.parallel_eff", "ratio", true}, {"shard.partition_ms", "ms", false}, {"shard.resync_ms", "ms", false},
	{"storage.wal_append_ms", "ms", false}, {"storage.wal_bytes_per_commit", "bytes", false},
	{"storage.load_csv_ms", "ms", false}, {"engine.chase_ms", "ms", false}, {"storage.save_ms", "ms", false}, {"storage.load_ms", "ms", false},
	{"storage.snapshot_bytes_per_row", "bytes/row", false}, {"storage.restart_s", "s", false}, {"storage.replayed_records", "count", false},
	{"server.ping_us", "us", false}, {"server.wire_ms", "ms", false},
	{"inproc.mean_ms", "ms", false}, {"inproc.p50_ms", "ms", false}, {"wire.p50_ms", "ms", false}, {"stepped.mean_ms", "ms", false},
	{"trace.coverage", "ratio", true}, {"trace.overhead", "ratio", false}, {"trace.stepped_vs_inproc", "ratio", false},
	{"trace.ops", "count", true},
}

// traceResult is one traced run of one workload.
type traceResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
	Table    []layerRow         `json:"layer_table"`
	Ops      int                `json:"ops"`
	Correct  bool               `json:"correct"`
	Wrong    string             `json:"wrong,omitempty"`
}

// replay runs operations of the workload's connection-0 stream, one at a
// time, until the cap or the time budget ends it, and returns each
// operation's wall time in ms. one gets the statement the stream picked and
// whether to verify the answer (the first time the stream reaches it).
func replay(w *workload, seed int64, budget time.Duration, one func(stmt int, check bool) error) ([]float64, error) {
	limit, nstmts := replayOps, len(w.stmts)
	if w.stmts == nil {
		limit, nstmts = replayCycles, 1
	}
	stream := newStream(seed, 0)
	deadline := time.Now().Add(budget)
	seen := make([]bool, nstmts)
	var ms []float64
	for i := 0; i < limit && (i < minOpsPerReplay || time.Now().Before(deadline)); i++ {
		stmt := stream.next(nstmts)
		start := time.Now()
		if err := one(stmt, !seen[stmt]); err != nil {
			return nil, err
		}
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
		seen[stmt] = true
	}
	return ms, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// openSession opens the session maybmsd serves for the workload: in memory
// over the CSV, or durable in dir, sharded as pinned.
func openSession(w *workload, csvPath, dir string) (*sql.DB, error) {
	var db *sql.DB
	if w.durable {
		var err error
		if db, err = sql.CreateDir(dir); err != nil {
			return nil, err
		}
		if _, err := db.IngestCSV(csvPath, "R"); err != nil {
			db.Close()
			return nil, err
		}
		if err := db.Chase("R", census.Dependencies(), engine.ChaseOptions{AssumeClean: true}); err != nil {
			db.Close()
			return nil, err
		}
	} else {
		st, err := openStore(csvPath)
		if err != nil {
			return nil, err
		}
		db = sql.Open(st)
	}
	if err := db.EnableSharding(w.shards, 0); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// sessionOp is the workload's operation through the session API, as a
// maybmsd session executes it.
func sessionOp(db *sql.DB, w *workload, exp *expected) (func(stmt int, check bool) error, error) {
	query := func(p *sql.Prepared, want fingerprint, check bool) error {
		rows, err := p.Query()
		if err != nil {
			return err
		}
		return verifyRows(rows, check, "session API: "+p.Text(), want)
	}
	if w.stmts != nil {
		stmts := make([]*sql.Prepared, len(w.stmts))
		for i, text := range w.stmts {
			var err error
			if stmts[i], err = db.Prepare(text); err != nil {
				return nil, err
			}
		}
		return func(stmt int, check bool) error {
			return query(stmts[stmt], exp.stmts[w.stmts[stmt]], check)
		}, nil
	}
	q1, err := db.Prepare(census.SQL["Q1"])
	if err != nil {
		return nil, err
	}
	q2, q3, join := q5Names(0)
	return func(_ int, check bool) error {
		if _, err := db.Materialize(q2, census.SQL["Q2"]); err != nil {
			return err
		}
		if _, err := db.Materialize(q3, census.SQL["Q3"]); err != nil {
			return err
		}
		pj, err := db.Prepare(join)
		if err != nil {
			return err
		}
		if err := query(pj, exp.q5, check); err != nil {
			return err
		}
		if err := query(q1, exp.stmts[q1.Text()], check); err != nil {
			return err
		}
		db.DropRelation(q2)
		db.DropRelation(q3)
		return nil
	}, nil
}

// traceSetup times the set-up layers into spans of request 0 — ingest, chase,
// partition, snapshot save and load — and returns the stepper over the store
// they built.
func traceSetup(e *env, w *workload, tr *tracer, csvPath string, m map[string]float64) (*stepper, error) {
	step := &stepper{tr: tr, plans: make(map[string]*sql.EnginePlan)}
	setup := func(layer, name string, f func() error) error {
		return step.timed(setupRequestID, 0, layer, name, f)
	}
	if err := setup("storage", "load_csv", func() error {
		f, err := os.Open(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		step.store, _, err = storage.LoadCSV(f, csvPath, "R")
		return err
	}); err != nil {
		return nil, err
	}
	if err := setup("engine", "chase", func() error {
		return step.store.ChaseEGDsOpt("R", census.Dependencies(), engine.ChaseOptions{AssumeClean: true})
	}); err != nil {
		return nil, err
	}
	if w.shards > 1 {
		if err := setup("shard", "partition", func() (err error) {
			step.sh, err = shard.New(step.store, w.shards, 0)
			return err
		}); err != nil {
			return nil, err
		}
	}
	snapPath := filepath.Join(e.work, w.name+".mybs")
	if err := setup("storage", "save", func() error {
		f, err := os.Create(snapPath)
		if err != nil {
			return err
		}
		if err := storage.Save(step.store, f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}); err != nil {
		return nil, err
	}
	info, err := os.Stat(snapPath)
	if err != nil {
		return nil, err
	}
	m["storage.snapshot_bytes_per_row"] = float64(info.Size()) / float64(w.rows)
	if err := setup("storage", "load", func() error {
		f, err := os.Open(snapPath)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = storage.Load(f)
		return err
	}); err != nil {
		return nil, err
	}
	return step, nil
}

// traceAdhoc times what unprepared traffic would pay per statement: parse,
// compile (the plan-cache miss) and a Prepare that hits the cache.
func traceAdhoc(step *stepper, db *sql.DB, w *workload) error {
	texts := w.stmts
	if texts == nil {
		texts = []string{census.SQL["Q1"], census.SQL["Q2"], census.SQL["Q3"]}
	}
	for _, text := range texts {
		for i := 0; i < adhocReps; i++ {
			var st *sql.Stmt
			if err := step.timed(setupRequestID, 0, "sql", "parse", func() (err error) { st, err = sql.Parse(text); return err }); err != nil {
				return err
			}
			if err := step.timed(setupRequestID, 0, "sql", "compile", func() error {
				_, err := sql.CompileEngine(st, step.store.Snapshot())
				return err
			}); err != nil {
				return err
			}
			if err := step.timed(setupRequestID, 0, "sql", "prepare_cached", func() error { _, err := db.Prepare(text); return err }); err != nil {
				return err
			}
		}
	}
	return nil
}

// replays holds each operation's wall time in ms for the four replays of the
// stream.
type replays struct {
	traced, untraced, inproc, wire []float64
}

// runReplays replays the stream four ways (see the top of this file) and
// leaves the loopback ping in m.
func runReplays(e *env, w *workload, step *stepper, db *sql.DB, exp *expected, m map[string]float64) (r replays, err error) {
	budget := e.window / 4
	if r.traced, err = replay(w, e.seed, budget, func(stmt int, check bool) error {
		return step.op(w, stmt, exp, check)
	}); err != nil {
		return r, err
	}
	tr := step.tr
	step.tr = nil
	r.untraced, err = replay(w, e.seed, budget, func(stmt int, _ bool) error { return step.op(w, stmt, exp, false) })
	step.tr = tr
	if err != nil {
		return r, err
	}
	sop, err := sessionOp(db, w, exp)
	if err != nil {
		return r, err
	}
	if r.inproc, err = replay(w, e.seed, budget, sop); err != nil {
		return r, err
	}
	srv := server.New(db, server.Config{Logf: func(string, ...any) {}})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return r, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // the replay is over; a cut connection is fine
	}()
	c, err := client.Dial(addr.String())
	if err != nil {
		return r, err
	}
	defer c.Close()
	var picked int
	wireOp, err := clientOp(c, w, 0, func(int) int { return picked }, exp)
	if err != nil {
		return r, err
	}
	if r.wire, err = replay(w, e.seed, budget, func(stmt int, check bool) error {
		picked = stmt
		return wireOp(check)
	}); err != nil {
		return r, err
	}
	m["server.ping_us"], err = pingUS(c)
	return r, err
}

// traceRestart closes the durable session without a checkpoint and times the
// restore: what a kill -9 costs the next boot, in process.
func traceRestart(db *sql.DB, m map[string]float64) error {
	dir := db.DataDir()
	if err := db.Close(); err != nil {
		return err
	}
	start := time.Now()
	rdb, replayed, err := sql.Restore(dir)
	if err != nil {
		return fmt.Errorf("restoring %s: %w", dir, err)
	}
	defer rdb.Close()
	m["storage.restart_s"] = time.Since(start).Seconds()
	m["storage.replayed_records"] = float64(replayed)
	if rels := rdb.Relations(); len(rels) != 1 || rels[0] != "R" {
		return wrongf("after restore the catalog is %v, want [R]", rels)
	}
	return nil
}

// spanMetrics maps layer metrics to the rows of the layer table they are
// read from: the mean self time per operation for request-path rows, per
// call for set-up rows, divided by scale (ns → us or ms).
var spanMetrics = []struct {
	metric, row string
	scale       float64
}{
	{"sql.parse_us", "sql.parse", 1e3}, {"sql.compile_us", "sql.compile", 1e3},
	{"sql.prepare_cached_us", "sql.prepare_cached", 1e3}, {"sql.bind_us", "sql.bind", 1e3},
	{"engine.snapshot_us", "engine.snapshot", 1e3}, {"engine.arena_us", "engine.arena", 1e3},
	{"engine.run_ms", "engine.run", 1e6}, {"engine.scan_ms", "engine.scan", 1e6},
	{"engine.view_ms", "engine.view", 1e6}, {"engine.fold_ms", "engine.fold", 1e6},
	{"engine.commit_ms", "engine.commit", 1e6}, {"engine.chase_ms", "engine.chase", 1e6},
	{"shard.partition_ms", "shard.partition", 1e6}, {"shard.resync_ms", "shard.resync", 1e6},
	{"storage.wal_append_ms", "storage.wal_append", 1e6}, {"storage.load_csv_ms", "storage.load_csv", 1e6},
	{"storage.save_ms", "storage.save", 1e6}, {"storage.load_ms", "storage.load", 1e6},
}

// deriveMetrics fills m from the layer table, the stepper's counters and the
// replays' latencies.
func deriveMetrics(m map[string]float64, table []layerRow, step *stepper, r replays) {
	ops := float64(len(r.traced))
	rows := make(map[string]layerRow, len(table))
	for _, row := range table {
		rows[row.Layer+"."+row.Name] = row
	}
	for _, sm := range spanMetrics {
		row, ok := rows[sm.row]
		if !ok {
			continue
		}
		div := ops
		if row.Setup {
			div = float64(row.Calls)
		}
		m[sm.metric] = float64(row.SelfNS) / div / sm.scale
	}
	// Both replays of the stepper feed its counters.
	both := float64(len(r.traced) + len(r.untraced))
	m["engine.rows_out"] = float64(step.rowsOut) / both
	m["engine.arena_bytes"] = float64(step.arenaBytes) / both
	if fan := rows["shard.fanout"]; fan.BusyNS > 0 {
		m["shard.fanout_ms"] = float64(fan.BusyNS) / ops / 1e6
		m["shard.parallel_eff"] = float64(rows["shard.worker"].BusyNS) / (float64(step.sh.Workers()) * float64(fan.BusyNS))
	}
	m["inproc.mean_ms"] = mean(r.inproc)
	m["inproc.p50_ms"] = median(r.inproc)
	m["wire.p50_ms"] = median(r.wire)
	m["stepped.mean_ms"] = mean(r.untraced)
	// The loopback and session-API replays follow the same stream, so
	// operation i of one is operation i of the other; the median of the
	// paired differences keeps a stray slow request on either side out of
	// the wire's share.
	diffs := make([]float64, min(len(r.wire), len(r.inproc)))
	for i := range diffs {
		diffs[i] = r.wire[i] - r.inproc[i]
	}
	m["server.wire_ms"] = median(diffs)
	if root := rows["request.op"]; root.BusyNS > 0 {
		m["trace.coverage"] = 1 - float64(root.SelfNS)/float64(root.BusyNS)
	}
	if mu := mean(r.untraced); mu > 0 {
		m["trace.overhead"] = mean(r.traced)/mu - 1
	}
	if mi := mean(r.inproc); mi > 0 {
		m["trace.stepped_vs_inproc"] = mean(r.untraced) / mi
	}
	m["trace.ops"] = ops
}

// runTrace is the per-layer half of the benchmark for one workload.
func runTrace(e *env, w *workload) (*traceResult, []span, error) {
	csvPath := filepath.Join(e.work, w.name+".csv")
	if _, err := writeCSV(w, csvPath, e.seed); err != nil {
		return nil, nil, err
	}
	exp, err := computeExpected(w, csvPath)
	if err != nil {
		return nil, nil, fmt.Errorf("computing reference answers: %w", err)
	}
	// R's statistics may settle at any point of the replays (the end-to-end
	// run is where they are held still after the warm-up).
	exp.r.settle = time.Now().Add(24 * time.Hour)
	tr := newTracer()
	m := make(map[string]float64, len(layerMetrics))
	for _, d := range layerMetrics {
		m[d.name] = 0
	}
	res := &traceResult{Workload: w.name, Seed: e.seed, Metrics: m, Correct: true}

	step, err := traceSetup(e, w, tr, csvPath, m)
	if err != nil {
		return nil, nil, err
	}
	walPath := filepath.Join(e.work, w.name+"-stepped.wal")
	if w.durable {
		if step.wal, err = storage.OpenWAL(walPath); err != nil {
			return nil, nil, err
		}
		defer step.wal.Close()
	}
	db, err := openSession(w, csvPath, filepath.Join(e.work, w.name+"-trace-data"))
	if err != nil {
		return nil, nil, err
	}
	defer db.Close()
	if err := traceAdhoc(step, db, w); err != nil {
		return nil, nil, err
	}
	r, err := runReplays(e, w, step, db, exp, m)
	if err == nil && w.durable {
		err = traceRestart(db, m)
	}
	var wa *wrongAnswer
	switch {
	case errors.As(err, &wa):
		// A wrong answer is a result, not a crash: report it and fail the run.
		res.Correct, res.Wrong = false, wa.msg
		return res, tr.spans, nil
	case err != nil:
		return nil, nil, err
	}
	if w.durable {
		info, err := os.Stat(walPath)
		if err != nil {
			return nil, nil, err
		}
		const walHeaderBytes = 8
		m["storage.wal_bytes_per_commit"] = float64(info.Size()-walHeaderBytes) / float64(step.walAppends)
	}
	res.Ops = len(r.traced)
	res.Table = layerTable(tr.spans)
	deriveMetrics(m, res.Table, step, r)
	return res, tr.spans, nil
}

func (r *traceResult) contractLine() string {
	out := make(map[string]metricValue, len(layerMetrics))
	for _, d := range layerMetrics {
		out[d.name] = metricValue{r.Metrics[d.name], d.unit}
	}
	failed := 0
	if !r.Correct {
		failed = 1
	}
	return contractJSON(r.Correct, max(r.Ops, 1), failed, out)
}

func (r *traceResult) print() {
	fmt.Printf("\n== %s  seed=%d  traced in-process replay, %d operations, one at a time\n", r.Workload, r.Seed, r.Ops)
	var rootNS int64
	for _, row := range r.Table {
		if row.Layer == "request" {
			rootNS = row.BusyNS
		}
	}
	fmt.Printf("   %-26s %8s %14s %8s\n", "layer.call", "calls", "mean self", "share")
	rows := append([]layerRow(nil), r.Table...)
	// Request-path rows first, largest self time first; set-up rows after.
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Setup != rows[j].Setup {
			return rows[j].Setup
		}
		return rows[i].SelfNS > rows[j].SelfNS
	})
	for _, row := range rows {
		if row.Layer == "request" {
			continue
		}
		// Request-path rows: mean self time per operation and its share of
		// the request wall. Set-up rows: mean self time per call.
		per, share := "/call", "set-up"
		div := float64(row.Calls)
		if !row.Setup {
			per, share = "/op", fmt.Sprintf("%6.1f%%", 100*float64(row.SelfNS)/float64(rootNS))
			div = float64(max(r.Ops, 1))
		}
		fmt.Printf("   %-26s %8d %9.1f us%-5s %8s\n", row.Layer+"."+row.Name, row.Calls, float64(row.SelfNS)/div/1e3, per, share)
	}
	fmt.Println("   (share = layer self time / request wall; shard workers run side by side, so shares can add up past 100%)")
	for _, d := range layerMetrics {
		fmt.Printf("   %-32s %14.4f %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	cov := r.Metrics["trace.coverage"]
	fmt.Printf("   check 1: layer spans cover %.1f%% of the stepped request wall", cov*100)
	if cov < 0.9 {
		fmt.Printf(" — FINDING: more than 10%% unexplained")
	}
	fmt.Printf("\n   check 2: tracing overhead %.1f%% (stepped, spans on vs off)\n", r.Metrics["trace.overhead"]*100)
	fmt.Printf("   check 3: stepped / session API latency %.3f; session API p50 %.3f ms vs one connection over loopback p50 %.3f ms\n",
		r.Metrics["trace.stepped_vs_inproc"], r.Metrics["inproc.p50_ms"], r.Metrics["wire.p50_ms"])
	if !r.Correct {
		fmt.Printf("   WRONG: %s\n", r.Wrong)
	}
}
