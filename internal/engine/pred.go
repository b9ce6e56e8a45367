package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"maybms/internal/relation"
)

// Pred is a selection condition over one template row: comparisons of
// attributes against constants or other attributes, combined with ∧ and ∨.
// This covers the query workload of Figure 29 (Q4 needs a disjunction, Q3 a
// same-tuple attribute comparison).
type Pred interface {
	// Compile resolves attribute names against a relation.
	Compile(r *Relation) (CompiledPred, error)
	String() string
}

// CompiledPred evaluates against a row accessor returning the value of an
// attribute index, or column-at-a-time against a whole template.
type CompiledPred interface {
	Eval(get func(attr uint16) int32) bool
	// Attrs returns the referenced attribute indexes, sorted, deduplicated.
	Attrs() []uint16
	// Filter narrows the selection vector sel — ascending rows of the
	// template cols — to the rows satisfying the condition, in place, and
	// returns the kept prefix. Placeholder cells compare as their sentinel
	// value: a row whose referenced fields are uncertain must be decided per
	// local world by the caller.
	Filter(cols [][]int32, sel []int32) []int32
}

func applyOp(theta relation.Op, a, b int32) bool {
	switch theta {
	case relation.EQ:
		return a == b
	case relation.NE:
		return a != b
	case relation.LT:
		return a < b
	case relation.LE:
		return a <= b
	case relation.GT:
		return a > b
	case relation.GE:
		return a >= b
	}
	return false
}

// AttrConst is the atom Attr θ C.
type AttrConst struct {
	Attr  string
	Theta relation.Op
	C     int32
}

// Compile implements Pred.
func (p AttrConst) Compile(r *Relation) (CompiledPred, error) {
	ai, err := r.AttrIndex(p.Attr)
	if err != nil {
		return nil, err
	}
	return compiledConst{ai: ai, theta: p.Theta, c: p.C}, nil
}

func (p AttrConst) String() string { return fmt.Sprintf("%s%s%d", p.Attr, p.Theta, p.C) }

type compiledConst struct {
	ai    uint16
	theta relation.Op
	c     int32
}

func (p compiledConst) Eval(get func(uint16) int32) bool { return applyOp(p.theta, get(p.ai), p.c) }
func (p compiledConst) Attrs() []uint16                  { return []uint16{p.ai} }

// Filter implements CompiledPred. Each θ is one of three comparisons or its
// negation: every loop stores each row and advances past the kept ones,
// with no branch on θ inside.
func (p compiledConst) Filter(cols [][]int32, sel []int32) []int32 {
	col, c, k := cols[p.ai], p.c, 0
	switch p.theta {
	case relation.EQ, relation.NE:
		want := p.theta == relation.EQ
		for _, i := range sel {
			sel[k] = i
			if (col[i] == c) == want {
				k++
			}
		}
	case relation.LT, relation.GE:
		want := p.theta == relation.LT
		for _, i := range sel {
			sel[k] = i
			if (col[i] < c) == want {
				k++
			}
		}
	case relation.LE, relation.GT:
		want := p.theta == relation.LE
		for _, i := range sel {
			sel[k] = i
			if (col[i] <= c) == want {
				k++
			}
		}
	}
	return sel[:k]
}

// valueRange is the closed range of values lo..hi.
type valueRange struct{ lo, hi int32 }

// atomRanges returns the ascending, disjoint ranges of the values v with
// v θ c.
func atomRanges(theta relation.Op, c int32) []valueRange {
	switch theta {
	case relation.EQ:
		return []valueRange{{c, c}}
	case relation.LE:
		return []valueRange{{math.MinInt32, c}}
	case relation.GE:
		return []valueRange{{c, math.MaxInt32}}
	}
	// <, > and ≠: the values below c, above c, or both.
	var rs []valueRange
	if theta != relation.GT && c > math.MinInt32 {
		rs = append(rs, valueRange{math.MinInt32, c - 1})
	}
	if theta != relation.LT && c < math.MaxInt32 {
		rs = append(rs, valueRange{c + 1, math.MaxInt32})
	}
	return rs
}

// compiledRanges is a disjunction of atoms A θ c over one attribute A,
// folded into the ascending, disjoint ranges of the values it keeps: one
// pass over the column where the general disjunction runs every atom on a
// copy of the batch and merges their survivors.
type compiledRanges struct {
	ai uint16
	rs []valueRange
}

// valueRanges returns the attribute and the value ranges of an atom A θ c
// or of a folded disjunction of such; false for any other condition.
func valueRanges(cp CompiledPred) (uint16, []valueRange, bool) {
	switch p := cp.(type) {
	case compiledConst:
		return p.ai, atomRanges(p.theta, p.c), true
	case compiledRanges:
		return p.ai, p.rs, true
	}
	return 0, nil, false
}

// foldRanges returns the disjunction of kids as one compiledRanges when
// every kid is an atom A θ c, or such a disjunction, over one attribute.
func foldRanges(kids []CompiledPred) (compiledRanges, bool) {
	var out compiledRanges
	for i, k := range kids {
		ai, rs, ok := valueRanges(k)
		if !ok || (i > 0 && ai != out.ai) {
			return compiledRanges{}, false
		}
		out.ai, out.rs = ai, append(out.rs, rs...)
	}
	slices.SortFunc(out.rs, func(a, b valueRange) int { return cmp.Compare(a.lo, b.lo) })
	rs := out.rs[:0]
	for _, r := range out.rs {
		if n := len(rs); n > 0 && int64(r.lo) <= int64(rs[n-1].hi)+1 {
			rs[n-1].hi = max(rs[n-1].hi, r.hi)
			continue
		}
		rs = append(rs, r)
	}
	out.rs = rs
	return out, len(kids) > 0
}

// holds reports whether v lies in one of the ranges: lo ≤ v ≤ hi is one
// unsigned comparison of v − lo against hi − lo.
func (p compiledRanges) holds(v int32) bool {
	for _, r := range p.rs {
		if uint32(v)-uint32(r.lo) <= uint32(r.hi)-uint32(r.lo) {
			return true
		}
	}
	return false
}

func (p compiledRanges) Eval(get func(uint16) int32) bool { return p.holds(get(p.ai)) }
func (p compiledRanges) Attrs() []uint16                  { return []uint16{p.ai} }

// Filter implements CompiledPred; a single range runs without a branch on
// the value, like compiledConst.Filter.
func (p compiledRanges) Filter(cols [][]int32, sel []int32) []int32 {
	col, k := cols[p.ai], 0
	if len(p.rs) == 1 {
		lo, span := uint32(p.rs[0].lo), uint32(p.rs[0].hi)-uint32(p.rs[0].lo)
		for _, i := range sel {
			sel[k] = i
			if uint32(col[i])-lo <= span {
				k++
			}
		}
		return sel[:k]
	}
	for _, i := range sel {
		sel[k] = i
		if p.holds(col[i]) {
			k++
		}
	}
	return sel[:k]
}

// AttrAttr is the atom A θ B over two attributes of the same tuple.
type AttrAttr struct {
	A     string
	Theta relation.Op
	B     string
}

// Compile implements Pred.
func (p AttrAttr) Compile(r *Relation) (CompiledPred, error) {
	a, err := r.AttrIndex(p.A)
	if err != nil {
		return nil, err
	}
	b, err := r.AttrIndex(p.B)
	if err != nil {
		return nil, err
	}
	return compiledAttrAttr{a: a, theta: p.Theta, b: b}, nil
}

func (p AttrAttr) String() string { return fmt.Sprintf("%s%s%s", p.A, p.Theta, p.B) }

type compiledAttrAttr struct {
	a, b  uint16
	theta relation.Op
}

func (p compiledAttrAttr) Eval(get func(uint16) int32) bool {
	return applyOp(p.theta, get(p.a), get(p.b))
}

// Filter implements CompiledPred, like compiledConst.Filter.
func (p compiledAttrAttr) Filter(cols [][]int32, sel []int32) []int32 {
	a, b, k := cols[p.a], cols[p.b], 0
	switch p.theta {
	case relation.EQ, relation.NE:
		want := p.theta == relation.EQ
		for _, i := range sel {
			sel[k] = i
			if (a[i] == b[i]) == want {
				k++
			}
		}
	case relation.LT, relation.GE:
		want := p.theta == relation.LT
		for _, i := range sel {
			sel[k] = i
			if (a[i] < b[i]) == want {
				k++
			}
		}
	case relation.LE, relation.GT:
		want := p.theta == relation.LE
		for _, i := range sel {
			sel[k] = i
			if (a[i] <= b[i]) == want {
				k++
			}
		}
	}
	return sel[:k]
}

func (p compiledAttrAttr) Attrs() []uint16 {
	if p.a == p.b {
		return []uint16{p.a}
	}
	if p.a < p.b {
		return []uint16{p.a, p.b}
	}
	return []uint16{p.b, p.a}
}

// And is a conjunction (empty = true).
type And []Pred

// Compile implements Pred.
func (p And) Compile(r *Relation) (CompiledPred, error) { return compileList(p, r, true) }

func (p And) String() string { return joinPreds(p, " ∧ ") }

// Or is a disjunction (empty = false).
type Or []Pred

// Compile implements Pred.
func (p Or) Compile(r *Relation) (CompiledPred, error) { return compileList(p, r, false) }

func (p Or) String() string { return joinPreds(p, " ∨ ") }

type compiledList struct {
	kids  []CompiledPred
	conj  bool
	attrs []uint16
}

func compileList(ps []Pred, r *Relation, conj bool) (CompiledPred, error) {
	out := compiledList{conj: conj}
	seen := map[uint16]bool{}
	for _, p := range ps {
		c, err := p.Compile(r)
		if err != nil {
			return nil, err
		}
		out.kids = append(out.kids, c)
		for _, a := range c.Attrs() {
			if !seen[a] {
				seen[a] = true
				out.attrs = append(out.attrs, a)
			}
		}
	}
	sort.Slice(out.attrs, func(i, j int) bool { return out.attrs[i] < out.attrs[j] })
	if !conj {
		if rs, ok := foldRanges(out.kids); ok {
			return rs, nil
		}
	}
	return out, nil
}

func (p compiledList) Eval(get func(uint16) int32) bool {
	for _, k := range p.kids {
		if k.Eval(get) != p.conj {
			return !p.conj
		}
	}
	return p.conj
}

func (p compiledList) Attrs() []uint16 { return p.attrs }

// Filter narrows sel kid by kid for a conjunction; a disjunction runs every
// kid on a copy and keeps the rows some kid kept, found by merge-walking the
// kids' ascending survivors against sel.
func (p compiledList) Filter(cols [][]int32, sel []int32) []int32 {
	if p.conj {
		for _, k := range p.kids {
			sel = k.Filter(cols, sel)
		}
		return sel
	}
	hit := make([]bool, len(sel))
	buf := make([]int32, len(sel))
	for _, k := range p.kids {
		yes := k.Filter(cols, append(buf[:0], sel...))
		for i, j := 0, 0; j < len(yes); i++ {
			if sel[i] == yes[j] {
				hit[i] = true
				j++
			}
		}
	}
	out := sel[:0]
	for i, row := range sel {
		if hit[i] {
			out = append(out, row)
		}
	}
	return out
}

// Stages is a chain of selections σ_{pk}(…σ_{p1}(src)), p1 first, which
// Select and SelectProject run as one operator: each stage runs over the
// rows the stages before it kept, and a row whose references are
// placeholders is decided per local world at every stage that reads them.
// The result equals the chain run as separate selections — components,
// local-world order and masks — but no intermediate is built.
type Stages []Pred

// Compile implements Pred: compiled as one condition, outside the
// operators that run its stages in turn, a chain is the conjunction of its
// stages.
func (p Stages) Compile(r *Relation) (CompiledPred, error) { return And(p).Compile(r) }

func (p Stages) String() string { return joinPreds(p, " ; ") }

func joinPreds(ps []Pred, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// Eq is shorthand for Attr = c.
func Eq(attr string, c int32) Pred { return AttrConst{attr, relation.EQ, c} }

// Ne is shorthand for Attr ≠ c.
func Ne(attr string, c int32) Pred { return AttrConst{attr, relation.NE, c} }

// Gt is shorthand for Attr > c.
func Gt(attr string, c int32) Pred { return AttrConst{attr, relation.GT, c} }
