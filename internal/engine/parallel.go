package engine

import (
	"fmt"
	"runtime"
	"sync"
)

// Morsel-parallel confidence: the tuple-level view's groups are independent
// factors, so disjoint group subsets can be swept by separate accumulators on
// separate goroutines and the per-tuple mass lists merged afterwards. Because
// every group is swept whole by one worker (the per-group mass is a
// local-world-ordered sum) and FoldMasses folds each tuple's mass multiset in
// canonical order, the parallel result is byte-identical to the serial one —
// the property the shard subsystem's differential tests pin down.

// DefaultConfWorkers is the worker count used when a caller passes 0: derived
// from GOMAXPROCS, clamped to [1, MaxConfWorkers].
func DefaultConfWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	if w > MaxConfWorkers {
		w = MaxConfWorkers
	}
	return w
}

// MaxConfWorkers clamps worker pools: beyond this, merge overhead dominates.
const MaxConfWorkers = 16

// parallelThreshold is the minimum amount of scoring work (certain rows plus
// groups) worth fanning out; below it a single sweep wins.
const parallelThreshold = 256

// possibleMassesParallel is PossibleMasses with the sweep striped over a
// worker pool: worker w scores certain-row chunk w and every group g with
// index ≡ w (mod workers). The merged result is identical to the serial one.
func possibleMassesParallel(v View, rel string, workers int) ([]TupleMasses, error) {
	if workers <= 0 {
		workers = DefaultConfWorkers()
	}
	tv, err := tupleLevelView(v, rel)
	if err != nil {
		return nil, err
	}
	work := len(tv.certain) + len(tv.groups)
	if workers > work {
		workers = work
	}
	guard := guardOf(v)
	if workers <= 1 || work < parallelThreshold {
		return tv.masses(guard)
	}
	// The workers share one guard: its tick counter and failure latch are
	// atomic, so the first worker to hit a cancel or budget failure stops the
	// whole pool within a checkpoint period. Worker panics are contained here
	// and surface as an error — a poisoned fold must not kill the process.
	parts := make([][]TupleMasses, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[w] = fmt.Errorf("engine: confidence fold worker panic: %v", p)
				}
			}()
			ac := newTupleAccum(len(tv.rel.Attrs))
			lo := len(tv.certain) * w / workers
			hi := len(tv.certain) * (w + 1) / workers
			if err := ac.internCertain(tv.rel, tv.certain[lo:hi], guard); err != nil {
				errs[w] = err
				return
			}
			var groups []*tlGroup
			for i := w; i < len(tv.groups); i += workers {
				groups = append(groups, tv.groups[i])
			}
			if err := ac.sweepGroups(tv.rel, groups, guard); err != nil {
				errs[w] = err
				return
			}
			parts[w] = ac.sorted()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return MergeMasses(guard, parts)
}

// MergeMasses merges per-part pre-fold confidence tables — each produced by
// PossibleMasses over a disjoint subset of the independent groups (a shard,
// or a worker's stripe) — into one canonical table: equal tuples concatenate
// their mass lists and OR their certain flags. The merged mass multiset per
// tuple equals the unsharded one, so FoldMasses yields byte-identical
// confidences.
func MergeMasses(g *Guard, parts [][]TupleMasses) ([]TupleMasses, error) {
	nonEmpty, arity := 0, 0
	for _, p := range parts {
		if len(p) > 0 {
			nonEmpty++
			arity = len(p[0].Tuple)
		}
	}
	if nonEmpty <= 1 {
		for _, p := range parts {
			if len(p) > 0 {
				return p, nil
			}
		}
		return nil, nil
	}
	tab := newTupleTable(arity)
	var out []TupleMasses
	for _, part := range parts {
		for _, tm := range part {
			if err := g.Tick(); err != nil {
				return nil, err
			}
			if len(tm.Tuple) != arity {
				return nil, fmt.Errorf("engine: merging tuples of arity %d and %d", arity, len(tm.Tuple))
			}
			i, added := tab.intern(tm.Tuple)
			if added {
				out = append(out, TupleMasses{Tuple: tm.Tuple})
			}
			out[i].Certain = out[i].Certain || tm.Certain
			out[i].Masses = append(out[i].Masses, tm.Masses...)
		}
	}
	sortMasses(out)
	return out, nil
}

// FoldMassTable folds a merged pre-fold table into the final confidence
// table (certain tuples are exactly 1), ticking g per tuple (nil is a
// no-op guard).
func FoldMassTable(g *Guard, tms []TupleMasses) ([]TupleConf, error) { return foldAll(g, tms) }

// PossibleMassesParallel is PossibleMasses with the group sweep striped over
// a pool of workers (0 = DefaultConfWorkers, 1 = the serial sweep). The table
// is identical to the serial one, so folding it is byte-identical to
// PossibleP.
func (a *Arena) PossibleMassesParallel(rel string, workers int) ([]TupleMasses, error) {
	if err := a.materialize(); err != nil {
		return nil, err
	}
	return possibleMassesParallel(a, rel, workers)
}
