package engine

import (
	"fmt"
	"sort"
)

// This file computes the across-world operators of Section 6 — the
// confidence of a tuple (Figure 17), the possible tuples of a relation
// (Figure 18) and both combined (Figure 19) — natively on the columnar
// representation. The WSD bridge (internal/bridge) plus internal/confidence remain as
// the reference oracle these implementations are differential-tested
// against; the query path goes through here and never materializes a
// core.WSD.
//
// The cost model is the point: building the tuple-level view touches only
// the components reachable from the relation's own placeholders
// (tuplelevel.go), and the sweep below scores all tuples in one pass with
// slice-indexed accumulators, so CONF() over a query result is priced by the
// result — not by the base relations the query never touched, and not by a
// per-tuple rescan.

// TupleConf pairs a possible tuple — in the engine's native int32 encoding —
// with its confidence.
type TupleConf struct {
	Tuple []int32
	Conf  float64
}

// TupleMasses is the pre-fold form of one confidence-table entry: the tuple,
// whether some certain template row produces it (confidence exactly 1), and
// the probability mass it collects from each independent group that can
// produce it. The final confidence is FoldMasses over Masses — kept separate
// so per-shard mass lists can be merged before folding (shards partition the
// groups, so the union of the shards' mass lists is exactly the unsharded
// list as a multiset).
type TupleMasses struct {
	Tuple   []int32
	Certain bool
	Masses  []float64
}

// FoldMasses combines the per-group masses of one tuple into its confidence:
// matches in distinct groups are independent events, so
// conf = 1 - Π(1 - mass). The masses are folded in ascending value order —
// floating-point combination is order-sensitive, and the canonical order
// makes the result a function of the mass multiset alone. That is what keeps
// sharded confidence byte-identical to unsharded: both paths fold the same
// multiset.
func FoldMasses(ms []float64) float64 {
	switch len(ms) {
	case 0:
		return 0
	case 1:
		return ms[0]
	}
	sorted := append(make([]float64, 0, len(ms)), ms...)
	sort.Float64s(sorted)
	c := sorted[0]
	for _, m := range sorted[1:] {
		c = 1 - (1-c)*(1-m)
	}
	return c
}

// CompareTuples orders two native tuples lexicographically; it matches the
// canonical order of relation.CompareTuples on all-integer tuples, so native
// and bridge answer lists sort identically.
func CompareTuples(a, b []int32) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}

// tupleAccum interns tuples and accumulates per-tuple probability masses
// with slice indexes: a tupleTable keyed on the tuple's own int32 words
// resolves a tuple to a dense index once, and the per-group sweep then works
// entirely in slices — mass, a last-counted stamp, a touched list — instead
// of map[string]float64 per component.
type tupleAccum struct {
	tab     *tupleTable
	certain []bool
	masses  [][]float64
	mass    []float64
	stamp   []int // last (group, local world) epoch that counted the tuple
	touched []int
}

func newTupleAccum(arity int) *tupleAccum {
	return &tupleAccum{tab: newTupleTable(arity)}
}

// intern returns the dense index of tuple t, adding it on first sight. The
// returned index is stable; t is copied only when new.
func (ac *tupleAccum) intern(t []int32) int {
	i, added := ac.tab.intern(t)
	if added {
		ac.certain = append(ac.certain, false)
		ac.masses = append(ac.masses, nil)
		ac.mass = append(ac.mass, 0)
		ac.stamp = append(ac.stamp, -1)
	}
	return i
}

// add counts mass p for tuple index i at epoch e, at most once per epoch
// (a local world listing a tuple in several slots counts it once).
func (ac *tupleAccum) add(i, e int, p float64) {
	if ac.stamp[i] == e {
		return
	}
	ac.stamp[i] = e
	if ac.mass[i] == 0 {
		ac.touched = append(ac.touched, i)
	}
	ac.mass[i] += p
}

// fold closes the current group: every touched tuple's accumulated group
// mass is appended to its mass list (one entry per producing group) and the
// running masses reset for the next group. The confidence itself is computed
// later by FoldMasses, in canonical order.
func (ac *tupleAccum) fold() {
	for _, i := range ac.touched {
		ac.masses[i] = append(ac.masses[i], ac.mass[i])
		ac.mass[i] = 0
	}
	ac.touched = ac.touched[:0]
}

// sorted returns the interned tuples with their mass lists in canonical
// order.
//
//maybms:unguarded linear copy of the interned table, one entry per distinct tuple; foldAll ticks per tuple
func (ac *tupleAccum) sorted() []TupleMasses {
	out := make([]TupleMasses, ac.tab.len())
	for i := range out {
		out[i] = TupleMasses{Tuple: ac.tab.tuple(i), Certain: ac.certain[i], Masses: ac.masses[i]}
	}
	sortMasses(out)
	return out
}

// sortMasses puts a table of distinct tuples in canonical order.
func sortMasses(tms []TupleMasses) {
	sort.Slice(tms, func(i, j int) bool { return CompareTuples(tms[i].Tuple, tms[j].Tuple) < 0 })
}

// foldAll turns sorted mass lists into the final confidence table. It
// ticks g per tuple — each fold sorts and multiplies a mass list, and the
// table can be as large as the result — so a canceled query dies inside
// the fold, not after it. A nil guard ticks for free.
func foldAll(g *Guard, tms []TupleMasses) ([]TupleConf, error) {
	out := make([]TupleConf, len(tms))
	for i, tm := range tms {
		if err := g.Tick(); err != nil {
			return nil, err
		}
		c := 1.0
		if !tm.Certain {
			c = FoldMasses(tm.Masses)
		}
		out[i] = TupleConf{Tuple: tm.Tuple, Conf: c}
	}
	return out, nil
}

// groupTuple materializes the tuple of row tr at local world w of its
// group's component into buf; ok is false when the tuple is absent there
// (some field has no value — the encoding of worlds of different sizes).
func groupTuple(r *Relation, g *tlGroup, tr tlRow, w int, buf []int32) (_ []int32, ok bool) {
	crow := &g.comp.Rows[w]
	buf = buf[:0]
	for a, col := range tr.cols {
		if col < 0 {
			buf = append(buf, r.Cols[a][tr.row])
			continue
		}
		if crow.IsAbsent(col) {
			return buf, false
		}
		buf = append(buf, crow.Vals[col])
	}
	return buf, true
}

// internCertain interns the certain template rows of the view: present in
// every world, confidence exactly 1, whatever the uncertain rows add. There
// can be as many as the relation has rows, so the guard is ticked once per
// batch of guardPeriod rows.
func (ac *tupleAccum) internCertain(r *Relation, rows []int32, guard *Guard) error {
	tbuf := make([]int32, len(r.Attrs))
	for lo := 0; lo < len(rows); lo += guardPeriod {
		hi := min(lo+guardPeriod, len(rows))
		if err := guard.tickN(hi - lo); err != nil {
			return err
		}
		for _, row := range rows[lo:hi] {
			for a, col := range r.Cols {
				tbuf[a] = col[row]
			}
			ac.certain[ac.intern(tbuf)] = true
		}
	}
	return nil
}

// sweepGroups scores every tuple each group can produce: one epoch per
// (group, local world), fold at each group boundary. Each group must be swept
// whole — the per-group mass is a sum in local-world order — but distinct
// groups are independent, so disjoint group subsets can be swept by separate
// accumulators and merged (mergeMasses). The guard is ticked once per
// (group, local world) epoch — the sweep is the exponential part of
// confidence computation, so this is where a cancel must land.
func (ac *tupleAccum) sweepGroups(r *Relation, groups []*tlGroup, guard *Guard) error {
	tbuf := make([]int32, 0, len(r.Attrs))
	epoch := 0
	for _, g := range groups {
		for w := range g.comp.Rows {
			if err := guard.Tick(); err != nil {
				return err
			}
			p := g.comp.Rows[w].P
			for _, tr := range g.rows {
				t, ok := groupTuple(r, g, tr, w, tbuf)
				tbuf = t[:0]
				if !ok {
					continue
				}
				ac.add(ac.intern(t), epoch, p)
			}
			epoch++
		}
		ac.fold()
	}
	return nil
}

// PossibleMasses computes the pre-fold confidence table of rel natively on
// any view (live store, snapshot, or an arena's result relations read in
// place): the tuple-level view is built once and every tuple's per-group
// masses are collected in a single sweep over it, in canonical tuple order,
// not yet folded. The shard layer merges these across sub-stores before
// folding.
func PossibleMasses(v View, rel string) ([]TupleMasses, error) {
	tv, err := tupleLevelView(v, rel)
	if err != nil {
		return nil, err
	}
	return tv.masses(guardOf(v))
}

// masses scores the whole view with one accumulator: the certain rows, then
// every group.
func (tv *tupleView) masses(guard *Guard) ([]TupleMasses, error) {
	ac := newTupleAccum(len(tv.rel.Attrs))
	if err := ac.internCertain(tv.rel, tv.certain, guard); err != nil {
		return nil, err
	}
	if err := ac.sweepGroups(tv.rel, tv.groups, guard); err != nil {
		return nil, err
	}
	return ac.sorted(), nil
}

// PossibleP computes the possible tuples of rel with their confidences
// (Figure 19) natively on the view, sorted canonically. This is the CONF()
// computation, with no WSD materialization.
func PossibleP(v View, rel string) ([]TupleConf, error) {
	tms, err := PossibleMasses(v, rel)
	if err != nil {
		return nil, err
	}
	return foldAll(guardOf(v), tms)
}

// Conf computes the confidence of tuple t in relation rel (Figure 17)
// natively on the view: the sum of the probabilities of the worlds whose rel
// contains t.
func Conf(v View, rel string, t []int32) (float64, error) {
	tv, err := tupleLevelView(v, rel)
	if err != nil {
		return 0, err
	}
	r := tv.rel
	if len(t) != len(r.Attrs) {
		return 0, fmt.Errorf("engine: tuple arity %d, want %d", len(t), len(r.Attrs))
	}
	for _, x := range t {
		if x < 0 {
			return 0, fmt.Errorf("engine: negative value %d in tuple", x)
		}
	}
	for _, row := range tv.certain {
		match := true
		for a := range r.Attrs {
			if r.Cols[a][row] != t[a] {
				match = false
				break
			}
		}
		if match {
			return 1, nil
		}
	}
	guard := guardOf(v)
	var masses []float64
	buf := make([]int32, 0, len(t))
	for _, g := range tv.groups {
		mass := 0.0
		for w := range g.comp.Rows {
			if err := guard.Tick(); err != nil {
				return 0, err
			}
			for _, tr := range g.rows {
				tup, ok := groupTuple(r, g, tr, w, buf)
				buf = tup[:0]
				if ok && CompareTuples(tup, t) == 0 {
					mass += g.comp.Rows[w].P
					break
				}
			}
		}
		if mass != 0 {
			masses = append(masses, mass)
		}
	}
	return FoldMasses(masses), nil
}

// Possible computes the tuples of rel appearing in at least one world
// (Figure 18) natively on the view, in canonical order.
//
//maybms:unguarded linear copy of the already-folded table; PossibleP ticks per tuple
func Possible(v View, rel string) ([][]int32, error) {
	tcs, err := PossibleP(v, rel)
	if err != nil {
		return nil, err
	}
	out := make([][]int32, len(tcs))
	for i, tc := range tcs {
		out[i] = tc.Tuple
	}
	return out, nil
}

// Certain reports whether tuple t occurs in every world of rel: its
// confidence is 1 within eps. Engine components always carry probabilities,
// so — unlike the generic confidence package — there is no separate
// non-probabilistic path.
func Certain(v View, rel string, t []int32, eps float64) (bool, error) {
	c, err := Conf(v, rel, t)
	if err != nil {
		return false, err
	}
	return c >= 1-eps, nil
}

// PossibleMasses is the free function on the arena's view, after building
// a pending result; the benchmark's traced run steps it by this name.
func (a *Arena) PossibleMasses(rel string) ([]TupleMasses, error) {
	if err := a.materialize(); err != nil {
		return nil, err
	}
	return PossibleMasses(a, rel)
}
