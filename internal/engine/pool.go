package engine

import (
	"sync"
	"sync/atomic"
)

// Arena pooling: high-QPS prepared queries execute one arena per call, and
// the arena's maps and slices are exactly the kind of allocation a pool
// amortizes. AcquireArena hands out a reset arena over the given snapshot;
// ReleaseArena returns it once the result is dead (Rows.Close on the session
// path). Pooling is semantically invisible — a reset arena is
// indistinguishable from a fresh one — which the pooled-vs-unpooled tests
// assert under -race.

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// arenaAcquires and arenaReleases count AcquireArena and non-nil
// ReleaseArena calls process-wide. They are instrumentation hooks: tests
// assert that every path out of an execution — error, cancel, a cursor
// closed mid-fetch — returns the arenas it acquired (the two deltas match).
var arenaAcquires, arenaReleases atomic.Uint64

// ArenaAcquires reports how many arenas this process has taken from the
// pool.
func ArenaAcquires() uint64 { return arenaAcquires.Load() }

// ArenaReleases reports how many arenas this process has returned to the
// pool.
func ArenaReleases() uint64 { return arenaReleases.Load() }

// AcquireArena returns a pooled arena reset over snap; pair it with
// ReleaseArena when the arena's results are no longer referenced.
func AcquireArena(snap *Snapshot) *Arena {
	a := arenaPool.Get().(*Arena)
	a.Reset(snap)
	arenaAcquires.Add(1)
	return a
}

// ReleaseArena resets a and returns it to the pool. The caller must hold the
// only reference: the arena's relations and components die with it. A nil
// release is a no-op, and a committed (spent) arena is safe to release — its
// installed state now belongs to the store.
func ReleaseArena(a *Arena) {
	if a == nil {
		return
	}
	a.Reset(nil)
	arenaPool.Put(a)
	arenaReleases.Add(1)
}

// Reset re-points the arena at snap and clears all session state, keeping
// allocated map capacity for reuse. A reset arena behaves exactly like one
// from NewArena.
func (a *Arena) Reset(snap *Snapshot) {
	a.snap = snap
	a.guard = nil
	a.pending = nil
	for i := range a.rels {
		a.rels[i] = nil // release result templates to the GC, keep capacity
	}
	a.rels = a.rels[:0]
	a.nextCID = 0
	a.scratchSeq = 0
	a.attrBuf = a.attrBuf[:0]
	a.decBuf = a.decBuf[:0]
	a.keptBuf = a.keptBuf[:0]
	a.view.release()
	a.onDecide = nil
	if a.relID == nil {
		a.relID = make(map[string]int32)
		a.comps = make(map[int32]*Component)
		a.fieldComp = make(map[FieldID]int32)
		a.origins = make(map[int32][]int32)
		a.shadowed = make(map[int32]bool)
		a.dirty = make(map[int32]bool)
		return
	}
	clear(a.relID)
	clear(a.comps)
	clear(a.fieldComp)
	clear(a.shadowed)
	clear(a.origins)
	clear(a.dirty)
}
