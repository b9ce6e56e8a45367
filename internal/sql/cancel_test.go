package sql

import (
	"context"
	"errors"
	"math/rand"
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
// POSSIBLE query passes beyond those of materializing the same plain query
// (which builds the result, as the confidence pass does first) lies in that
// pass; the cancel lands five checkpoints into it.
func TestCancelMidIntern(t *testing.T) {
	const rows = 50000
	r := rand.New(rand.NewSource(23))
	cols := [][]int32{make([]int32, rows), make([]int32, rows)}
	for _, col := range cols {
		for i := range col {
			col[i] = int32(r.Intn(30))
		}
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
	ctx := &countCtx{Context: context.Background()}
	TestHookExec = func(string) { ctx.armed.Store(true) }
	_, err := db.MaterializeContext(ctx, "M", "SELECT A FROM R WHERE B < 30")
	TestHookExec = nil
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DropRelation("M"); err != nil {
		t.Fatal(err)
	}
	plain := ctx.calls.Load()
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

// TestShardedQueryCanceled: cancellation crosses the shard scheduler — the
// canceled context stops the fan-out before any shard runs, with the engine's
// typed error, and the session keeps answering afterwards.
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

// TestShardedMemGuardAborts: a mid-flight abort with shard workers already
// running — every worker stops on the guard's error and every shard arena
// goes back to the pool. The store is big enough that each shard crosses a
// real (amortized) checkpoint after its result has started growing.
func TestShardedMemGuardAborts(t *testing.T) {
	db := Open(shardedStore(t, 13, 20000))
	if err := db.EnableSharding(4, 2); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("budget blown")
	ctx := WithMemGuard(context.Background(), func(delta int64) error { return boom })
	before := engine.ArenaReleases()
	_, err := db.QueryContext(ctx, "SELECT * FROM R WHERE A < 25")
	if !errors.Is(err, boom) {
		t.Fatalf("sharded guard abort: got %v, want the guard's error in the chain", err)
	}
	if engine.ArenaReleases() == before {
		t.Fatal("aborted sharded query did not release shard arenas")
	}
}

// TestShardedModeQueryCanceled covers the non-distributable (confidence fold)
// sharded path, whose parallel fold threads the same guard.
func TestShardedModeQueryCanceled(t *testing.T) {
	db := Open(shardedStore(t, 11, 2000))
	if err := db.EnableSharding(4, 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	TestHookExec = func(string) { cancel() }
	defer func() { TestHookExec = nil }()
	_, err := db.QueryContext(ctx, "SELECT CONF() FROM R WHERE A < 10")
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("sharded mode-query cancel: got %v, want engine.ErrCanceled", err)
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
