package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

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

// MergeMasses merges per-part pre-fold confidence tables — each produced by
// PossibleMasses over a shard's disjoint subset of the independent groups —
// into one canonical table: equal tuples concatenate their mass lists and OR
// their certain flags. The merged mass multiset per tuple equals the
// unsharded one, so FoldMasses yields byte-identical confidences.
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
