package sql

import (
	"context"

	"maybms/internal/engine"
	"maybms/internal/relation"
)

// certainEps is the tolerance under which a confidence counts as 1.
const certainEps = 1e-9

// execute is the one path from a compiled template to a Result: run binds
// and runs the plan on a pooled private arena over each snapshot of the
// placement (view.placement chooses), so the shared store is never written and
// any number of executions run concurrently.
//
// A plain plan runs on one snapshot, the authority's. Its result is the
// plan's result as an engine.Selection — when the last step is a selection,
// projection or renaming over a base relation, the kept columns of the
// snapshot's relation at a selection vector, never gathered — and the
// returned Result owns its arena; Rows.Close (or Materialize) releases it.
//
// An across-world plan runs once per snapshot of its placement — the
// authority, or every shard for a distributable plan — on an engine.Fanout
// pool at most workers wide. Each run reads the plan's pending result in
// place into its pre-fold mass table — the result relation is never built —
// and releases its arena; the tables merge exactly (every group of
// independent components lives in one part), and one canonical fold
// produces the answers — which is what makes sharded CONF()/POSSIBLE/CERTAIN
// byte-identical to unsharded.
func execute(ctx context.Context, snaps []*engine.Snapshot, workers int, tpl *EnginePlan, args []relation.Value) (*Result, error) {
	res := &Result{Mode: tpl.Mode, Attrs: tpl.OutAttrs}
	if tpl.Mode == ModePlain {
		// A pool of one: the plain arm shares the fan-out's panic
		// containment, so a defect in a plan fails its query, not the caller.
		var ar *engine.Arena
		err := engine.Fanout(1, 1, func(int) (err error) {
			var scratch string
			if ar, scratch, err = run(ctx, snaps[0], tpl, args); err != nil {
				return err
			}
			res.out = ar.Selection(scratch)
			res.Relation, res.Stats = scratch, res.out.Stats()
			return nil
		})
		if err != nil {
			engine.ReleaseArena(ar)
			return nil, err
		}
		res.arena = ar
		return res, nil
	}
	parts := make([][]engine.TupleMasses, len(snaps))
	err := engine.Fanout(len(snaps), workers, func(i int) error {
		ar, scratch, err := run(ctx, snaps[i], tpl, args)
		if err != nil {
			return err
		}
		defer engine.ReleaseArena(ar)
		parts[i], err = ar.PossibleMasses(scratch)
		return err
	})
	if err != nil {
		return nil, err
	}
	// The merge and fold run on the coordinator after the arenas are gone;
	// they watch the request context through a guard of their own.
	guard := engine.NewGuard(ctx)
	merged, err := engine.MergeMasses(guard, parts)
	if err != nil {
		return nil, err
	}
	tcs, err := engine.FoldMassTable(guard, merged)
	if err != nil {
		return nil, err
	}
	if tpl.Mode == ModeCertain {
		kept := tcs[:0]
		for _, tc := range tcs {
			if tc.Conf >= 1-certainEps {
				kept = append(kept, tc)
			}
		}
		tcs = kept
	}
	res.Tuples = tcs
	return res, nil
}

// run acquires a pooled arena over sn, binds the plan into it under a fresh
// scratch name and runs it, then drops the plan's temporaries. It returns
// the arena holding the result under scratch; on error or panic the arena is
// already back in the pool.
func run(ctx context.Context, sn *engine.Snapshot, tpl *EnginePlan, args []relation.Value) (ar *engine.Arena, scratch string, err error) {
	ar = engine.AcquireArena(sn)
	ok := false
	defer func() {
		if !ok {
			engine.ReleaseArena(ar)
			ar = nil
		}
	}()
	// Each arena gets its own guard over the shared request context: growth
	// deltas stay per-arena while cancellation and the budget hook are common
	// to the whole query. One eager checkpoint before any work: a context
	// canceled before the query starts (or between retries) is noticed even
	// by a query too small to reach an amortized checkpoint.
	guard := newExecGuard(ctx)
	ar.SetGuard(guard)
	if err = guard.Check(); err != nil {
		return
	}
	scratch = ar.NewScratch()
	plan, err := tpl.Bind(scratch, args)
	if err != nil {
		return
	}
	if err = plan.Run(ar); err != nil {
		return
	}
	if err = plan.DropTemps(ar); err != nil {
		return
	}
	// No operator loop ticks after the last step: check once more, so the
	// memory hook sees what the result retains.
	err = guard.Check()
	ok = err == nil
	return
}
