package sql

import (
	"context"

	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/shard"
)

// certainEps is the tolerance under which a confidence counts as 1.
const certainEps = 1e-9

// execute is the one path from a compiled template to a Result. It binds
// and runs the plan once per snapshot of the placement — the authority
// snapshot alone, or one snapshot per shard (DB.placement chooses) — each on
// a pooled private arena, so the shared store is never written and any
// number of executions run concurrently. workers bounds the goroutines of
// the fan-out, and of the confidence sweep when the authority runs alone.
//
// A plain result keeps one arena-owned segment per snapshot, in placement
// order: the row partition distributes over the operators of a distributable
// plan, so the segments concatenate. A segment is the plan's result as an
// engine.Selection — when the last step is a selection, projection or
// renaming over a base relation, the kept columns of the snapshot's relation
// at a selection vector, never gathered. The returned Result owns the
// arenas; Rows.Close (or Materialize) releases them. An across-world result
// materializes nothing: each snapshot reads the plan's pending result in
// place into its pre-fold mass table — the result relation is never built —
// and releases its arena, the tables merge exactly (every group of
// independent components lives in one part), and one canonical fold produces
// the answers — which is what makes sharded CONF()/POSSIBLE/CERTAIN
// byte-identical to unsharded.
func execute(ctx context.Context, snaps []*engine.Snapshot, workers int, tpl *EnginePlan, args []relation.Value) (*Result, error) {
	segs := make([]resultSeg, len(snaps))
	parts := make([][]engine.TupleMasses, len(snaps))
	// With a single placement the pool is free for the confidence sweep
	// (byte-identical to the serial one); across shards each arena sweeps
	// serially and the pool runs the shards.
	sweepWorkers := 1
	if len(snaps) == 1 && workers > 1 {
		sweepWorkers = workers
	}
	var attrs []string
	err := shard.EachSnapshotCtx(ctx, snaps, workers, func(i int, sn *engine.Snapshot) error {
		ar := engine.AcquireArena(sn)
		keep := false
		defer func() {
			if !keep {
				engine.ReleaseArena(ar)
			}
		}()
		// Each arena gets its own guard over the shared request context:
		// growth deltas stay per-arena while cancellation and the budget hook
		// are common to the whole query.
		guard := newExecGuard(ctx)
		ar.SetGuard(guard)
		// One eager checkpoint before any work: a context canceled before the
		// query starts (or between retries) is noticed even by a query too
		// small to reach an amortized checkpoint.
		if err := guard.Check(); err != nil {
			return err
		}
		scratch := ar.NewScratch()
		plan, err := tpl.Bind(scratch, args)
		if err != nil {
			return err
		}
		if err := plan.Run(ar); err != nil {
			return err
		}
		if err := plan.DropTemps(ar); err != nil {
			return err
		}
		// No operator loop ticks after the last step: check once more, so
		// the memory hook sees what the result retains.
		if err := guard.Check(); err != nil {
			return err
		}
		if i == 0 {
			attrs = plan.OutAttrs
		}
		if tpl.Mode != ModePlain {
			parts[i], err = ar.PossibleMassesParallel(scratch, sweepWorkers)
			return err
		}
		segs[i] = resultSeg{arena: ar, out: ar.Selection(scratch)}
		keep = true
		return nil
	})
	if err != nil {
		for _, seg := range segs {
			engine.ReleaseArena(seg.arena)
		}
		return nil, err
	}
	out := &Result{Mode: tpl.Mode, Attrs: attrs}
	if tpl.Mode == ModePlain {
		out.Relation = segs[0].out.Name()
		out.segs = segs
		for _, seg := range segs {
			st := seg.out.Stats()
			out.Stats.NumComp += st.NumComp
			out.Stats.NumCompGT1 += st.NumCompGT1
			out.Stats.CSize += st.CSize
			out.Stats.RSize += st.RSize
		}
		return out, nil
	}
	// The merge and fold run on the coordinator after the arenas are gone;
	// they watch the request context through a guard of their own.
	guard := engine.NewGuard(ctx)
	merged := parts[0]
	if len(parts) > 1 {
		if merged, err = engine.MergeMasses(guard, parts); err != nil {
			return nil, err
		}
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
	out.Tuples = tcs
	return out, nil
}
