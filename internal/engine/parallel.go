package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// Fanout calls f(i) for every i in [0, n) on at most workers goroutines, the
// caller's included (workers ≤ 0: DefaultConfWorkers). Indexes are claimed
// in ascending order; once a call fails no further index is claimed, and
// calls already running finish. A panicking call fails with an error naming
// its index, so one poisoned call cannot kill the process. Fanout returns
// the first failure. It cancels nothing itself: callers stop running calls
// early through their Guard. It is the one worker pool of the engine, the
// shard set and the SQL executor.
func Fanout(n, workers int, f func(i int) error) error {
	return fanout(n, workers, f, nil)
}

// fanout is Fanout with a hook called right after the first failure is
// published, before the failing worker claims again (nil: none). Tests
// use it to tell the calls claimed after the publication from the ones
// before.
func fanout(n, workers int, f func(i int) error, published func()) error {
	if workers <= 0 {
		workers = DefaultConfWorkers()
	}
	var next atomic.Int64
	var first atomic.Pointer[error]
	call := func(i int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("engine: fan-out call %d panicked: %v", i, p)
			}
		}()
		return f(i)
	}
	work := func() {
		for first.Load() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := call(i); err != nil && first.CompareAndSwap(nil, &err) && published != nil {
				published()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if err := first.Load(); err != nil {
		return *err
	}
	return nil
}

// parallelThreshold is the minimum amount of scoring work (certain rows plus
// groups) worth fanning out; below it a single sweep wins.
const parallelThreshold = 256

// possibleMassesParallel is PossibleMasses with the sweep striped over a
// worker pool: worker w scores certain-row chunk w and every group g with
// index ≡ w (mod workers), where chunk w holds the certain rows among the
// w-th share of the result rows. The merged result is identical to the
// serial one.
func possibleMassesParallel(v View, rel string, workers int) ([]TupleMasses, error) {
	if workers <= 0 {
		workers = DefaultConfWorkers()
	}
	tv, err := viewOf(v, rel)
	if err != nil {
		return nil, err
	}
	work := tv.numCertain(0, tv.n) + len(tv.groups)
	if workers > work {
		workers = work
	}
	guard := guardOf(v)
	if workers <= 1 || work < parallelThreshold {
		return tv.masses(guard)
	}
	// The workers share one guard: its tick counter and failure latch are
	// atomic, so the first worker to hit a cancel or budget failure stops the
	// whole pool within a checkpoint period.
	parts := make([][]TupleMasses, workers)
	err = Fanout(workers, workers, func(w int) error {
		ac := newTupleAccum(len(tv.cols))
		lo, hi := tv.n*w/workers, tv.n*(w+1)/workers
		if err := ac.internCertain(tv, lo, hi, guard); err != nil {
			return err
		}
		var groups []*tlGroup
		for i := w; i < len(tv.groups); i += workers {
			groups = append(groups, tv.groups[i])
		}
		if err := ac.sweepGroups(tv.cols, groups, guard); err != nil {
			return err
		}
		parts[w] = ac.sorted()
		return nil
	})
	if err != nil {
		return nil, err
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
// a pool of workers (0 = DefaultConfWorkers, 1 = the serial sweep); a pending
// result is read in place. The table is identical to the serial one, so
// folding it is byte-identical to PossibleP.
func (a *Arena) PossibleMassesParallel(rel string, workers int) ([]TupleMasses, error) {
	return possibleMassesParallel(a, rel, workers)
}
