package sql

import (
	"context"

	"maybms/internal/engine"
)

// Query-lifecycle plumbing between the serving layer and the engine: the
// server derives a context per request (timeout, CANCEL frame, connection
// close) and attaches its memory ledger through WithMemGuard; the executor
// turns both into an engine.Guard wired to the query's arenas, so every
// operator row loop and confidence sweep is a cancellation point and arena
// growth is charged against the budget while the result is being built.

// memGuardKey carries the serving layer's mid-flight memory hook in a
// context.
type memGuardKey struct{}

// WithMemGuard returns a context carrying a mid-flight memory hook: during
// execution under this context, onGrow is called with each positive chunk of
// arena growth (amortized, not per-allocation). A non-nil error from onGrow
// aborts the query at its next checkpoint. The hook may be called from
// several goroutines (a sharded mode query probes one arena per shard) and
// must be goroutine-safe.
func WithMemGuard(ctx context.Context, onGrow func(delta int64) error) context.Context {
	return context.WithValue(ctx, memGuardKey{}, onGrow)
}

// memGuardFrom extracts the mid-flight memory hook, or nil.
func memGuardFrom(ctx context.Context) func(delta int64) error {
	f, _ := ctx.Value(memGuardKey{}).(func(delta int64) error)
	return f
}

// newExecGuard builds the engine guard of one execution: context checkpoints
// always, the memory hook when the context carries one. Each arena of an
// execution needs its own guard instance (growth deltas are per-arena), all
// built from the same context.
func newExecGuard(ctx context.Context) *engine.Guard {
	g := engine.NewGuard(ctx)
	if onGrow := memGuardFrom(ctx); onGrow != nil {
		g.SetMemHook(nil, onGrow)
	}
	return g
}

// TestHookExec, when non-nil, is called at the start of every execution —
// Query and, under the writer lock, Materialize — with the statement text. It exists for the serving layer's
// lifecycle tests: blocking in the hook holds a query mid-execution so a
// CANCEL or disconnect can race it deterministically, and panicking in it
// simulates an engine defect for the containment tests. Never set outside
// tests.
var TestHookExec func(text string)
