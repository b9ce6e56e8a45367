package sql

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"maybms/internal/engine"
)

// TestQueryContextPreCanceled: a context canceled before the query starts is
// noticed by the eager guard checkpoint — even a query too small to reach an
// amortized one — and no pooled arena stays out.
func TestQueryContextPreCanceled(t *testing.T) {
	db := Open(tinyStore(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	acquired, released := engine.ArenaAcquires(), engine.ArenaReleases()
	_, err := db.QueryContext(ctx, "SELECT CONF() FROM R WHERE A = 1")
	if err == nil {
		t.Fatal("query on a pre-canceled context succeeded")
	}
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("error %v does not chain engine.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not chain context.Canceled", err)
	}
	if engine.ArenaAcquires()-acquired != engine.ArenaReleases()-released {
		t.Fatal("aborted query did not release its pooled arena")
	}
}

// TestQueryContextDeadlineChains: an expired deadline surfaces as both
// engine.ErrCanceled (the engine-side latch) and context.DeadlineExceeded
// (what the server maps to the TIMEOUT wire code).
func TestQueryContextDeadlineChains(t *testing.T) {
	db := Open(tinyStore(t))
	ctx, cancel := context.WithCancel(context.Background())
	TestHookExec = func(string) { cancel() }
	defer func() { TestHookExec = nil }()
	_, err := db.QueryContext(ctx, "SELECT * FROM R")
	if !errors.Is(err, engine.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel between prepare and run: got %v, want ErrCanceled + context.Canceled", err)
	}
}

// TestMemGuardAbortsMidQuery: a WithMemGuard hook refusing arena growth stops
// the query during execution with the hook's error in the chain, and the
// arena is released.
func TestMemGuardAbortsMidQuery(t *testing.T) {
	db := Open(shardedStore(t, 5, 4000))
	boom := errors.New("budget blown")
	grew := false
	ctx := WithMemGuard(context.Background(), func(delta int64) error {
		grew = true
		return boom
	})
	before := engine.ArenaReleases()
	_, err := db.QueryContext(ctx, "SELECT * FROM R WHERE A < 20")
	if !grew {
		t.Fatal("query never reported arena growth to the memory guard")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the guard's error in the chain", err)
	}
	if engine.ArenaReleases() == before {
		t.Fatal("guard-aborted query did not release its pooled arena")
	}
}

// TestCancelMidScan: a fused SELECT a FROM R WHERE … over a store many
// batches long stops inside its column scan when the context is canceled
// there — the kernels check the guard once per batch of rows — with the typed
// error and every pooled arena returned. countCtx cancels at its limit-th
// Err call once the execution has started; with no limit it counts the
// checkpoints an uncanceled run passes.
func TestCancelMidScan(t *testing.T) {
	db := Open(shardedStore(t, 17, 50000))
	run := func(limit int64) (int64, error) {
		ctx := &countCtx{Context: context.Background(), limit: limit}
		TestHookExec = func(string) { ctx.armed.Store(true) }
		defer func() { TestHookExec = nil }()
		_, err := db.QueryContext(ctx, "SELECT B FROM R WHERE A < 20")
		return ctx.calls.Load(), err
	}
	total, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if total < 40 {
		t.Fatalf("an uncanceled run passed %d checkpoints, want one per batch of a 50k-row scan", total)
	}
	acquired, released := engine.ArenaAcquires(), engine.ArenaReleases()
	calls, err := run(5)
	if !errors.Is(err, engine.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled mid-scan: got %v, want ErrCanceled + context.Canceled", err)
	}
	if calls != 5 {
		t.Fatalf("the query ran on to checkpoint %d after the cancel at 5 (of %d)", calls, total)
	}
	if engine.ArenaAcquires()-acquired != engine.ArenaReleases()-released {
		t.Fatal("query canceled mid-scan did not release its pooled arena")
	}
}

// TestCancelMidIntern: SELECT POSSIBLE over a 50k-row result stops inside
// the confidence pass that interns the result's certain rows — it ticks the
// guard once per batch of rows — with the typed error and its arena
// returned. The store holds no placeholders, so every checkpoint the
// POSSIBLE query passes beyond those of the same plain query (which runs the
// filter and reads its result in place, as the confidence pass does after
// it) lies in that pass; the cancel lands five checkpoints into it.
//
// Interning stops once it has seen every tuple A's value counts admit, so
// the last row holds A = 30 and B = 30: the only A = 30 is in a row the
// WHERE drops, the result's tuples never reach the 31 A admits, and the
// pass walks every row.
func TestCancelMidIntern(t *testing.T) {
	const rows = 50000
	r := rand.New(rand.NewSource(23))
	cols := [][]int32{make([]int32, rows), make([]int32, rows)}
	for _, col := range cols {
		for i := range col {
			col[i] = int32(r.Intn(30))
		}
		col[rows-1] = 30
	}
	s := engine.NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, cols); err != nil {
		t.Fatal(err)
	}
	db := Open(s)
	run := func(query string, limit int64) (int64, error) {
		ctx := &countCtx{Context: context.Background(), limit: limit}
		TestHookExec = func(string) { ctx.armed.Store(true) }
		defer func() { TestHookExec = nil }()
		rs, err := db.QueryContext(ctx, query)
		if err == nil {
			rs.Close()
		}
		return ctx.calls.Load(), err
	}
	// The first selection on R builds B's value counts, and the first
	// POSSIBLE A builds A's, ticking the guard for every row each build
	// pass reads: run both once first, so that the counts below are of
	// queries reading built ones.
	for _, warm := range []string{"SELECT A FROM R WHERE B < 30", "SELECT POSSIBLE A FROM R WHERE B < 30"} {
		if _, err := run(warm, 0); err != nil {
			t.Fatal(err)
		}
	}
	plain, err := run("SELECT A FROM R WHERE B < 30", 0)
	if err != nil {
		t.Fatal(err)
	}
	total, err := run("SELECT POSSIBLE A FROM R WHERE B < 30", 0)
	if err != nil {
		t.Fatal(err)
	}
	if total-plain < 40 {
		t.Fatalf("POSSIBLE passed %d checkpoints beyond the plain query's %d, want one per batch of its 50k interned rows", total-plain, plain)
	}
	acquired, released := engine.ArenaAcquires(), engine.ArenaReleases()
	limit := plain + 5
	calls, err := run("SELECT POSSIBLE A FROM R WHERE B < 30", limit)
	if !errors.Is(err, engine.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled mid-intern: got %v, want ErrCanceled + context.Canceled", err)
	}
	// The interning pass may be split among the sweep workers, each of
	// which can reach a checkpoint before the first cancel is latched.
	if calls < limit || calls >= limit+int64(engine.DefaultConfWorkers()) {
		t.Fatalf("the query stopped at checkpoint %d, want the cancel at %d (of %d)", calls, limit, total)
	}
	if engine.ArenaAcquires()-acquired != engine.ArenaReleases()-released {
		t.Fatal("query canceled mid-intern did not release its pooled arena")
	}
}

type countCtx struct {
	context.Context
	armed atomic.Bool
	calls atomic.Int64
	limit int64
}

func (c *countCtx) Err() error {
	if !c.armed.Load() {
		return nil
	}
	if n := c.calls.Add(1); c.limit > 0 && n >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestShardedQueryCanceled: a canceled context stops a plain query on a
// sharded DB — which runs on the authority snapshot — at its eager
// checkpoint, with the engine's typed error, and the session keeps answering
// afterwards. The shard fan-out's cancel path is TestShardedModeQueryCanceled.
func TestShardedQueryCanceled(t *testing.T) {
	db := Open(shardedStore(t, 9, 3000))
	if err := db.EnableSharding(4, 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	TestHookExec = func(string) { cancel() }
	defer func() { TestHookExec = nil }()
	_, err := db.QueryContext(ctx, "SELECT * FROM R WHERE A < 10")
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("sharded cancel: got %v, want engine.ErrCanceled", err)
	}

	// The same statement with a live context still answers; the session is not
	// poisoned by the aborted run.
	TestHookExec = nil
	rows, err := db.Query("SELECT * FROM R WHERE A < 10")
	if err != nil {
		t.Fatalf("query after canceled run: %v", err)
	}
	if got := rowsAsStrings(t, rows); len(got) == 0 {
		t.Fatal("query after canceled run returned no rows")
	}
}

// TestShardedMemGuardAborts: a memory-guard abort inside the shard fan-out.
// A distributable POSSIBLE plan runs on every shard of a 4-shard store, two
// at a time; the guard refuses the first growth each shard run reports, so
// the abort lands while the shard workers are running. The query stops on
// the guard's error, the fan-out claims no shard after the first failure,
// and every shard arena it acquired goes back to the pool.
func TestShardedMemGuardAborts(t *testing.T) {
	db := Open(shardedStore(t, 13, 20000))
	if err := db.EnableSharding(4, 2); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("budget blown")
	ctx := WithMemGuard(context.Background(), func(delta int64) error { return boom })
	acquired, released := engine.ArenaAcquires(), engine.ArenaReleases()
	_, err := db.QueryContext(ctx, "SELECT POSSIBLE A, B, C FROM R WHERE A < 25")
	if !errors.Is(err, boom) {
		t.Fatalf("sharded guard abort: got %v, want the guard's error in the chain", err)
	}
	took := engine.ArenaAcquires() - acquired
	if took == 0 || took > 2 {
		t.Fatalf("the fan-out acquired %d shard arenas, want one per worker (≤ 2 of 4): no claim after the first abort", took)
	}
	if engine.ArenaReleases()-released != took {
		t.Fatalf("aborted sharded query released %d of its %d shard arenas", engine.ArenaReleases()-released, took)
	}
}

// TestShardedModeQueryCanceled covers the shard fan-out: a distributable
// CONF() plan runs on every shard, and each shard's run checks the same
// canceled context before any work; no shard arena stays out.
func TestShardedModeQueryCanceled(t *testing.T) {
	db := Open(shardedStore(t, 11, 2000))
	if err := db.EnableSharding(4, 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	TestHookExec = func(string) { cancel() }
	defer func() { TestHookExec = nil }()
	acquired, released := engine.ArenaAcquires(), engine.ArenaReleases()
	_, err := db.QueryContext(ctx, "SELECT CONF() FROM R WHERE A < 10")
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("sharded mode-query cancel: got %v, want engine.ErrCanceled", err)
	}
	if engine.ArenaAcquires()-acquired != engine.ArenaReleases()-released {
		t.Fatal("canceled sharded mode query did not release its shard arenas")
	}
}

// TestShardedCancelMidRun: a cancel that lands while the shard workers are
// scanning — at the eighth checkpoint of a POSSIBLE plan on a 4-shard store,
// two shards at a time, each shard run passing more than eight — stops both
// running workers at their next checkpoint, claims no further shard, and
// returns every shard arena. countCtx counts the checkpoints (TestCancelMidScan).
func TestShardedCancelMidRun(t *testing.T) {
	const workers = 2
	db := Open(shardedStore(t, 19, 40000))
	if err := db.EnableSharding(4, workers); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT POSSIBLE A, B FROM R WHERE C < 25"
	run := func(limit int64) (int64, error) {
		ctx := &countCtx{Context: context.Background(), limit: limit}
		TestHookExec = func(string) { ctx.armed.Store(true) }
		defer func() { TestHookExec = nil }()
		rs, err := db.QueryContext(ctx, q)
		if err == nil {
			rs.Close()
		}
		return ctx.calls.Load(), err
	}
	total, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if total < 4*12 {
		t.Fatalf("an uncanceled run passed %d checkpoints, want more than 8 per shard of 10k rows", total)
	}
	acquired, released := engine.ArenaAcquires(), engine.ArenaReleases()
	const limit = 8
	calls, err := run(limit)
	if !errors.Is(err, engine.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled mid-run: got %v, want ErrCanceled + context.Canceled", err)
	}
	if calls < limit || calls >= limit+workers {
		t.Fatalf("the fan-out stopped at checkpoint %d, want the cancel at %d (of %d) plus at most one per other worker", calls, limit, total)
	}
	took := engine.ArenaAcquires() - acquired
	if took > workers {
		t.Fatalf("the fan-out acquired %d shard arenas, want ≤ %d: no claim after the cancel", took, workers)
	}
	if engine.ArenaReleases()-released != took {
		t.Fatalf("query canceled mid-run released %d of its %d shard arenas", engine.ArenaReleases()-released, took)
	}
}

// TestPlanPanicFailsQuery: a panic while a plan runs — here in the memory
// hook, which each checkpoint that sees the arena grow calls — fails that
// query with an error naming the panic, returns every arena it acquired,
// and leaves the DB answering: plain and mode queries, unsharded and on
// shards, and MATERIALIZE.
func TestPlanPanicFailsQuery(t *testing.T) {
	panicky := WithMemGuard(context.Background(), func(int64) error { panic("ledger defect") })
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "panicked: ledger defect") {
			t.Fatalf("%s: got %v, want the panic as an error", what, err)
		}
	}
	for _, shards := range []int{0, 4} {
		db := Open(shardedStore(t, 21, 4000))
		if shards > 0 {
			if err := db.EnableSharding(shards, 2); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range []string{"SELECT * FROM R WHERE A < 20", "SELECT POSSIBLE A, B FROM R WHERE A < 20"} {
			acquired, released := engine.ArenaAcquires(), engine.ArenaReleases()
			_, err := db.QueryContext(panicky, q)
			check(q, err)
			if engine.ArenaAcquires()-acquired != engine.ArenaReleases()-released {
				t.Fatalf("%d shards %q: a panicking run did not release its arenas", shards, q)
			}
			mustQuery(t, db, q).Close()
		}
		acquired, released := engine.ArenaAcquires(), engine.ArenaReleases()
		_, err := db.MaterializeContext(panicky, "T", "SELECT * FROM R WHERE A < 20")
		check("MATERIALIZE", err)
		if engine.ArenaAcquires()-acquired != engine.ArenaReleases()-released {
			t.Fatalf("%d shards: a panicking MATERIALIZE did not release its arena", shards)
		}
		if _, err := db.Materialize("T", "SELECT * FROM R WHERE A < 20"); err != nil {
			t.Fatalf("%d shards: MATERIALIZE after the panic: %v", shards, err)
		}
	}
}

// TestShardedFoldUnderMemGuard: the coordinator's merge and fold run after
// the shard arenas are gone, so they checkpoint against the request context
// alone. A sharded across-world query with more mass rows than one
// checkpoint period, under a context carrying a memory hook (every served
// request), used to crash there on a guard with a hook but no arena to probe.
func TestShardedFoldUnderMemGuard(t *testing.T) {
	store := shardedStore(t, 5, 4000)
	const q = "SELECT POSSIBLE A, B, C FROM R"
	want := modeTable(t, mustQuery(t, Open(store), q))
	if len(want) <= 1024 {
		t.Fatalf("%d answers; the merge must tick past one checkpoint period", len(want))
	}
	db := Open(store)
	if err := db.EnableSharding(2, 2); err != nil {
		t.Fatal(err)
	}
	ctx := WithMemGuard(context.Background(), func(int64) error { return nil })
	rows, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got := modeTable(t, rows)
	if len(got) != len(want) {
		t.Fatalf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d: %s, want %s", i, got[i], want[i])
		}
	}
}
