package engine

import (
	"context"
	"errors"
)

// Cooperative cancellation. Confidence computation is exponential in the
// worst case (Section 6), so a query must be stoppable from outside: the
// serving layer derives a context per request and the engine honors it at
// checkpoints inside every operator and fold loop. The checkpoints are
// counter-amortized — one counter increment per unit of work, a real
// context/budget check every guardPeriod units — so the uncancelled fast
// path pays an increment per row, not a channel read. Column kernels tick
// once per batch of guardPeriod rows (tickN), so they check once per batch.
//
// The Guard also carries the mid-flight memory hook: at every real check it
// probes the arena's retained bytes and reports growth to the serving
// layer's ledger, so a result that will blow the budget is stopped while it
// is being built, not after.

// ErrCanceled marks an execution stopped at a guard checkpoint because its
// context was done. The returned error chains the context's own error too,
// so errors.Is sees both ErrCanceled and context.Canceled or
// context.DeadlineExceeded.
var ErrCanceled = errors.New("engine: query canceled")

// guardPeriod is the tick count between real checks: large enough that the
// per-row cost is one increment, small enough that a cancelled query stops
// within microseconds of work.
const guardPeriod = 1024

// Guard is the cancellation and resource checkpoint of one arena's work, or
// of the coordinator's merge and fold; a nil *Guard is valid everywhere and
// means "never canceled" — plain library use pays nothing.
//
// A Guard has one owner: the goroutine running its arena's operators and
// folds, or the coordinator. It is not safe for concurrent use; the arenas
// of a sharded execution each get their own over the shared request context.
type Guard struct {
	ctx     context.Context
	n       uint64
	probe   func() int64
	onGrow  func(delta int64) error
	lastMem int64
	// failed latches the first checkpoint error so every later check fails
	// with it.
	failed error
}

// NewGuard returns a guard checking ctx at checkpoint cadence. A nil ctx
// never cancels (memory hooks may still be attached).
func NewGuard(ctx context.Context) *Guard {
	return &Guard{ctx: ctx}
}

// SetMemHook attaches the mid-flight memory hook: probe reads the current
// retained bytes (typically Arena.MemUsage) and onGrow is called with the
// positive growth since the previous check. An onGrow error aborts the
// execution at the next checkpoint. Each arena of a sharded execution gets
// its own guard instance so per-arena growth deltas stay monotone; the
// onGrow callbacks may share state (the serving layer's ledger) and must be
// goroutine-safe then.
func (g *Guard) SetMemHook(probe func() int64, onGrow func(delta int64) error) {
	g.probe = probe
	g.onGrow = onGrow
	g.lastMem = 0
}

// Tick is the amortized checkpoint: cheap on every call, a real Check every
// guardPeriod calls. Operators call it once per row (or per local-world
// epoch); a non-nil error must abort the operator.
func (g *Guard) Tick() error {
	if g == nil {
		return nil
	}
	g.n++
	if g.n%guardPeriod != 0 {
		return nil
	}
	return g.Check()
}

// tickN is Tick for a batch of n units of work: one addition, and a real
// Check whenever the count crosses a multiple of guardPeriod.
func (g *Guard) tickN(n int) error {
	if g == nil {
		return nil
	}
	before := g.n
	g.n += uint64(n)
	if g.n/guardPeriod == before/guardPeriod {
		return nil
	}
	return g.Check()
}

// Check runs a real checkpoint now: context first, then the memory hook.
// Executors also call it once around plan phases so even a query too small
// to reach a single amortized checkpoint notices a cancel.
func (g *Guard) Check() error {
	if g == nil {
		return nil
	}
	if g.failed != nil {
		return g.failed
	}
	if g.ctx != nil {
		if cause := g.ctx.Err(); cause != nil {
			g.failed = &cancelError{cause: cause}
			return g.failed
		}
	}
	if g.onGrow == nil {
		return nil
	}
	g.failed = g.reportGrowth()
	return g.failed
}

// reportGrowth probes the retained bytes and reports any growth to onGrow.
func (g *Guard) reportGrowth() error {
	used := g.probe()
	delta := used - g.lastMem
	if delta <= 0 {
		return nil
	}
	if err := g.onGrow(delta); err != nil {
		return err
	}
	g.lastMem = used
	return nil
}

// cancelError chains both ErrCanceled and the originating context error, so
// callers can branch on either (the serving layer maps context.Canceled to
// the CANCELED wire code and context.DeadlineExceeded to TIMEOUT).
type cancelError struct{ cause error }

func (e *cancelError) Error() string { return ErrCanceled.Error() + ": " + e.cause.Error() }

func (e *cancelError) Is(target error) bool { return target == ErrCanceled }

func (e *cancelError) Unwrap() error { return e.cause }

// SetGuard attaches a guard to the arena: every operator and fold running on
// this arena checkpoints through it. When the guard carries a memory hook
// but no probe yet, the arena wires its own MemUsage. Reset clears the
// attachment.
func (a *Arena) SetGuard(g *Guard) {
	a.guard = g
	if g != nil && g.probe == nil && g.onGrow != nil {
		g.probe = a.MemUsage
	}
}

// tick is the operators' checkpoint; a nil guard (the plain library path)
// costs one predictable branch.
func (a *Arena) tick() error { return a.guard.Tick() }

// execGuard exposes the arena's guard to the View-generic confidence
// code; Snapshot and Store carry none (reads of committed state run
// unguarded).
func (a *Arena) execGuard() *Guard { return a.guard }

// guardOf resolves the guard of a View: arenas carry one, snapshots and
// stores do not.
func guardOf(v View) *Guard {
	if g, ok := v.(interface{ execGuard() *Guard }); ok {
		return g.execGuard()
	}
	return nil
}
