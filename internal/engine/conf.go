package engine

import (
	"fmt"
	"slices"
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
// (tuplelevel.go), reading a pending σ/π result in place rather than
// building it, and the sweep below scores all tuples in one pass with
// slice-indexed accumulators, so CONF() over a query result is priced by the
// uncertain part of the result — not by the base relations the query never
// touched, not by copying the result, and not by a per-tuple rescan.
//
// Nor by its certain rows, past its answers. The certain rows all have
// confidence 1, so only their distinct tuples matter. A base relation's
// columns carry value counts (posting.go: the offsets of a posting, built
// without its rows), and from those internCertain knows how many tuples
// the projected columns admit — the product of their distinct values. It
// stops once it has interned that many, usually a few hundred rows into
// tens of thousands; the counts also give the dense key's radixes without a
// pass over the rows. An arena result, or a column too short or too wide
// for counts, walks every certain row.

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
	group   int   // the current group's first epoch
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
// (a local world listing a tuple in several slots counts it once). A stamp
// older than the group's first epoch is the group's first touch; the mass
// cannot tell, a zero-probability local world leaving it 0.
func (ac *tupleAccum) add(i, e int, p float64) {
	if ac.stamp[i] == e {
		return
	}
	if ac.stamp[i] < ac.group {
		ac.touched = append(ac.touched, i)
	}
	ac.stamp[i] = e
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
		out[i] = TupleConf{Tuple: tm.Tuple, Conf: tm.conf()}
	}
	return out, nil
}

// conf is the entry's confidence: exactly 1 when certain, its folded masses
// otherwise.
func (tm *TupleMasses) conf() float64 {
	if tm.Certain {
		return 1
	}
	return FoldMasses(tm.Masses)
}

// groupTuple materializes the tuple of row tr at local world w of its
// group's component into buf, reading its certain cells from cols; ok is
// false when the tuple is absent there (some field has no value — the
// encoding of worlds of different sizes).
func groupTuple(cols [][]int32, g *tlGroup, tr tlRow, w int, buf []int32) (_ []int32, ok bool) {
	crow := &g.comp.Rows[w]
	buf = buf[:0]
	for a, col := range tr.cols {
		if col < 0 {
			buf = append(buf, cols[a][tr.src])
			continue
		}
		if crow.IsAbsent(col) {
			return buf, false
		}
		buf = append(buf, crow.Vals[col])
	}
	return buf, true
}

// internCertain interns the certain rows of the view: present in every
// world, confidence exactly 1, whatever the uncertain rows add. There can be
// as many as the relation has rows, so the guard is ticked once per run of
// at most guardPeriod rows. When the tuples fit a dense mixed-radix key no
// larger than the row count, a seen-bit per key admits each distinct tuple
// to the table once; answers are typically far fewer than rows. When the
// columns' value counts say how many tuples they admit — the product of
// their distinct values — interning stops once it has seen that many: the
// rows left can add no tuple, so the answers, their first-seen order and
// every mass are those of the whole walk.
func (ac *tupleAccum) internCertain(tv *tupleView, guard *Guard) error {
	counts, tuples := tv.admitted(guard)
	seen, stride := tv.denseKeys(counts)
	limit := -1 // never reached without counts
	if counts != nil {
		limit = ac.tab.len() + tuples
	}
	tbuf := make([]int32, len(tv.cols))
	for it := tv.runs(); ; {
		rows, ok := it.next()
		if !ok {
			return nil
		}
		if err := guard.tickN(len(rows)); err != nil {
			return err
		}
		for _, row := range rows {
			key := 0
			for a, col := range tv.cols {
				tbuf[a] = col[row]
				key += int(tbuf[a]) * stride[a]
			}
			if seen != nil {
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			ac.certain[ac.intern(tbuf)] = true
			if ac.tab.len() == limit {
				return nil
			}
		}
	}
}

// admitted returns the value counts of the view's columns (posting.go)
// and the tuples they admit, the product of their distinct values, when
// every column is a base relation's column with counts and the product is
// no more than the view's certain rows; nil otherwise. Beyond that neither
// can interning saturate nor a dense key fit, so no further column's
// counts are built once the product exceeds them.
func (tv *tupleView) admitted(g *Guard) (counts []*valueCounts, tuples int) {
	n := tv.n - len(tv.uncertain)
	if tv.src == nil || n == 0 {
		return nil, 0
	}
	counts, tuples = make([]*valueCounts, len(tv.order)), 1
	for a, at := range tv.order {
		c := tv.src.counts(at, g)
		if c == nil || c.vals == 0 || c.vals > n/tuples {
			return nil, 0
		}
		counts[a], tuples = c, tuples*c.vals
	}
	return counts, tuples
}

// denseKeys sizes the dense key of the certain tuples: stride[a] is the
// mixed-radix weight of column a, by the columns' maxima — from their value
// counts when there are some, else over the runs internCertain reads. seen
// is nil — every row interns — when a value is negative or the key space
// would exceed the number of certain rows.
//
//maybms:unguarded one linear max pass ahead of the interning loop, which ticks per run of the same rows
func (tv *tupleView) denseKeys(counts []*valueCounts) (seen []bool, stride []int) {
	stride = make([]int, len(tv.cols))
	n := tv.n - len(tv.uncertain)
	if n == 0 {
		return nil, stride
	}
	size := 1
	for a := len(tv.cols) - 1; a >= 0; a-- {
		var lo, hi int32
		if counts != nil {
			lo, hi = counts[a].vmin, counts[a].vmax
		} else {
			lo, hi = tv.colRange(a)
		}
		if lo < 0 {
			return nil, make([]int, len(tv.cols))
		}
		stride[a] = size
		size *= int(hi) + 1
		if size > n {
			return nil, make([]int, len(tv.cols))
		}
	}
	return make([]bool, size), stride
}

// colRange returns the smallest and largest values of column a over the
// certain rows, widened to include 0.
//
//maybms:unguarded one linear max pass ahead of the interning loop, which ticks per run of the same rows
func (tv *tupleView) colRange(a int) (lo, hi int32) {
	col := tv.cols[a]
	for it := tv.runs(); ; {
		rows, ok := it.next()
		if !ok {
			return lo, hi
		}
		for _, row := range rows {
			v := col[row]
			lo, hi = min(lo, v), max(hi, v)
		}
	}
}

// sweepGroups scores every tuple each group of the view can produce: one
// epoch per (group, local world), fold at each group boundary. The guard is
// ticked once per (group, local world) epoch — the sweep is the exponential
// part of confidence computation, so this is where a cancel must land.
func (ac *tupleAccum) sweepGroups(tv *tupleView, guard *Guard) error {
	cols := tv.cols
	tbuf := make([]int32, 0, len(cols))
	epoch := 0
	for gi := range tv.groups {
		g := &tv.groups[gi]
		ac.group = epoch
		for w := range g.comp.Rows {
			if err := guard.Tick(); err != nil {
				return err
			}
			p := g.comp.Rows[w].P
			for _, tr := range g.rows {
				t, ok := groupTuple(cols, g, tr, w, tbuf)
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
// any view (live store, snapshot, or an arena, whose pending result is read
// in place): the tuple-level view is built once and every tuple's per-group
// masses are collected in a single sweep over it, in canonical tuple order,
// not yet folded. The shard layer merges these across sub-stores before
// folding.
func PossibleMasses(v View, rel string) ([]TupleMasses, error) {
	tv, err := viewOf(v, rel)
	if err != nil {
		return nil, err
	}
	return tv.masses(guardOf(v))
}

// viewOf builds the tuple-level view of rel as seen through v, building
// nothing: an arena's relation is read as its Selection, a snapshot's or
// store's as the identity selection.
func viewOf(v View, rel string) (*tupleView, error) {
	var s *Selection
	if a, ok := v.(*Arena); ok {
		s = a.Selection(rel)
	} else if r := v.Rel(rel); r != nil {
		s = identity(v, r)
	}
	if s == nil {
		return nil, fmt.Errorf("engine: unknown relation %q", rel)
	}
	return tupleLevelView(s)
}

// masses scores the whole view with one accumulator: the certain rows, then
// every group.
func (tv *tupleView) masses(guard *Guard) ([]TupleMasses, error) {
	ac := newTupleAccum(len(tv.cols))
	if err := ac.internCertain(tv, guard); err != nil {
		return nil, err
	}
	if err := ac.sweepGroups(tv, guard); err != nil {
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
// contains t. It reads t's entry of the one sweep PossibleP folds, so the
// two agree bit for bit; a tuple in no world has confidence 0.
func Conf(v View, rel string, t []int32) (float64, error) {
	tv, err := viewOf(v, rel)
	if err != nil {
		return 0, err
	}
	if len(t) != len(tv.cols) {
		return 0, fmt.Errorf("engine: tuple arity %d, want %d", len(t), len(tv.cols))
	}
	for _, x := range t {
		if x < 0 {
			return 0, fmt.Errorf("engine: negative value %d in tuple", x)
		}
	}
	tms, err := tv.masses(guardOf(v))
	if err != nil {
		return 0, err
	}
	i, ok := slices.BinarySearchFunc(tms, t, func(tm TupleMasses, t []int32) int { return CompareTuples(tm.Tuple, t) })
	if !ok {
		return 0, nil
	}
	return tms[i].conf(), nil
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

// PossibleMasses is the free function on the arena's view: a pending result
// is read in place, never built. The benchmark's traced run steps it by this
// name.
func (a *Arena) PossibleMasses(rel string) ([]TupleMasses, error) {
	return PossibleMasses(a, rel)
}
