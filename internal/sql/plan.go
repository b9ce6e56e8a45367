package sql

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"maybms/internal/engine"
	"maybms/internal/relation"
)

// This file resolves names against a catalog and compiles statements into
// sequences of native operators on the columnar engine. The compiled shapes
// deliberately mirror the hand-built Figure 29 plans of internal/census:
// constant conjuncts of a WHERE clause become one selection, each
// same-tuple attribute comparison its own selection, per-table conditions
// are pushed below joins, and one cross-table equality per table pair
// becomes an equi-join. This keeps the engine's component compositions —
// and hence the representation statistics of Figure 27 — identical to the
// hand-built plans.
//
// Compilation and execution are split: CompileEngine resolves names and
// fixes the plan shape once, producing a parameter-templated plan whose
// relation names are symbolic; Bind substitutes the argument values and a
// concrete result name, so one compiled plan serves many executions —
// the prepared-statement path of the session API.

// Catalog is the read surface plans resolve names against and validate
// cached plans with: a live engine Store (single-threaded callers) or a
// Snapshot (the session API, so planning never races with writers).
type Catalog interface {
	Rel(name string) *engine.Relation
}

// catalog resolves relation names to attribute lists.
type catalog interface {
	relAttrs(name string) ([]string, bool)
}

type catalogView struct{ c Catalog }

func (v catalogView) relAttrs(name string) ([]string, bool) {
	r := v.c.Rel(name)
	if r == nil {
		return nil, false
	}
	return r.Attrs, true
}

// binding is a resolved FROM clause.
type binding struct {
	tables []boundTable
	// multi marks a join query: attributes are qualified alias.attr.
	multi bool
}

type boundTable struct {
	ref   TableRef
	attrs []string
}

// internalName returns the attribute name table ti's attr carries in the
// join result: the bare name for single-table queries, alias.attr otherwise.
func (b *binding) internalName(ti int, attr string) string {
	if !b.multi {
		return attr
	}
	return b.tables[ti].ref.Display() + "." + attr
}

func resolveFrom(sel *SelectNode, cat catalog) (*binding, error) {
	b := &binding{multi: len(sel.From) > 1}
	seen := make(map[string]bool)
	for _, tr := range sel.From {
		attrs, ok := cat.relAttrs(tr.Name)
		if !ok {
			return nil, fmt.Errorf("sql: offset %d: unknown relation %q", tr.off, tr.Name)
		}
		d := tr.Display()
		if seen[d] {
			return nil, fmt.Errorf("sql: offset %d: duplicate table name %q in FROM (use AS to alias)", tr.off, d)
		}
		seen[d] = true
		b.tables = append(b.tables, boundTable{ref: tr, attrs: attrs})
	}
	return b, nil
}

// resolveColumn maps a column reference to (table index, base attribute).
func (b *binding) resolveColumn(c ColumnRef) (int, string, error) {
	if c.Table != "" {
		for i, t := range b.tables {
			if t.ref.Display() == c.Table {
				if hasAttr(t.attrs, c.Column) {
					return i, c.Column, nil
				}
				return 0, "", fmt.Errorf("sql: offset %d: relation %q has no attribute %q", c.off, t.ref.Name, c.Column)
			}
		}
		return 0, "", fmt.Errorf("sql: offset %d: unknown table %q", c.off, c.Table)
	}
	found := -1
	for i, t := range b.tables {
		if hasAttr(t.attrs, c.Column) {
			if found >= 0 {
				return 0, "", fmt.Errorf("sql: offset %d: column %q is ambiguous (qualify it)", c.off, c.Column)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, "", fmt.Errorf("sql: offset %d: unknown column %q", c.off, c.Column)
	}
	return found, c.Column, nil
}

func hasAttr(attrs []string, a string) bool {
	for _, x := range attrs {
		if x == a {
			return true
		}
	}
	return false
}

// flattenConjuncts splits a condition into its top-level conjuncts.
func flattenConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	and, ok := e.(AndExpr)
	if !ok {
		return []Expr{e}
	}
	var out []Expr
	for _, c := range and {
		out = append(out, flattenConjuncts(c)...)
	}
	return out
}

// exprTables returns the set of table indexes a condition references.
func exprTables(b *binding, e Expr) (map[int]bool, error) {
	out := make(map[int]bool)
	var walk func(e Expr) error
	walk = func(e Expr) error {
		switch e := e.(type) {
		case AndExpr:
			for _, c := range e {
				if err := walk(c); err != nil {
					return err
				}
			}
		case OrExpr:
			for _, c := range e {
				if err := walk(c); err != nil {
					return err
				}
			}
		case CmpExpr:
			for _, o := range []Operand{e.L, e.R} {
				if o.IsCol() {
					ti, _, err := b.resolveColumn(*o.Col)
					if err != nil {
						return err
					}
					out[ti] = true
				}
			}
		}
		return nil
	}
	if err := walk(e); err != nil {
		return nil, err
	}
	return out, nil
}

// converse returns θ' with a θ b ⇔ b θ' a (operand swap, not negation).
func converse(o relation.Op) relation.Op {
	switch o {
	case relation.LT:
		return relation.GT
	case relation.LE:
		return relation.GE
	case relation.GT:
		return relation.LT
	case relation.GE:
		return relation.LE
	}
	return o // EQ and NE are symmetric
}

// isAttrAttr reports whether e is a single column-column comparison.
func isAttrAttr(e Expr) bool {
	c, ok := e.(CmpExpr)
	return ok && c.L.IsCol() && c.R.IsCol()
}

// exprToEnginePred converts a condition to an engine predicate; name maps
// column references to attribute names of the relation the predicate will
// run against.
func exprToEnginePred(e Expr, name func(ColumnRef) (string, error)) (engine.Pred, error) {
	switch e := e.(type) {
	case AndExpr:
		out := make(engine.And, len(e))
		for i, c := range e {
			p, err := exprToEnginePred(c, name)
			if err != nil {
				return nil, err
			}
			out[i] = p
		}
		return out, nil
	case OrExpr:
		out := make(engine.Or, len(e))
		for i, c := range e {
			p, err := exprToEnginePred(c, name)
			if err != nil {
				return nil, err
			}
			out[i] = p
		}
		return out, nil
	case CmpExpr:
		l, r, theta := e.L, e.R, e.Theta
		if !l.IsCol() {
			l, r, theta = r, l, converse(theta)
		}
		a, err := name(*l.Col)
		if err != nil {
			return nil, err
		}
		if r.IsCol() {
			b, err := name(*r.Col)
			if err != nil {
				return nil, err
			}
			return engine.AttrAttr{A: a, Theta: theta, B: b}, nil
		}
		if r.Val.Kind() != relation.KindInt {
			return nil, fmt.Errorf("sql: the engine stores integer codes only; string literal %s is not comparable", r.Val)
		}
		v := r.Val.AsInt()
		if v > math.MaxInt32 || v < math.MinInt32 {
			return nil, fmt.Errorf("sql: constant %d overflows the engine's 32-bit values", v)
		}
		return engine.AttrConst{Attr: a, Theta: theta, C: int32(v)}, nil
	}
	return nil, fmt.Errorf("sql: unsupported condition %T", e)
}

func andOfEngine(ps []engine.Pred) engine.Pred {
	if len(ps) == 1 {
		return ps[0]
	}
	return engine.And(ps)
}

// OpKind discriminates engine plan operators.
type OpKind uint8

// The engine plan operators, one per engine.Arena operator method.
const (
	OpSelect OpKind = iota
	OpProject
	OpRename
	OpJoin
	OpProduct
	OpUnion
	OpDifference
)

// EngineOp is one step of an engine plan.
type EngineOp struct {
	Kind OpKind
	// Res is the relation the step materializes; Src (and Src2 for binary
	// operators) are its inputs.
	Res, Src, Src2 string
	// Pred is the selection condition (OpSelect). On a templated plan it is
	// nil until Bind instantiates it from the predicate template.
	Pred engine.Pred
	// bind instantiates Pred from the bound parameter values (OpSelect on
	// templated plans).
	bind predBinder
	// Attrs is the projection list (OpProject).
	Attrs []string
	// Renames maps old to new attribute names (OpRename).
	Renames map[string]string
	// OnL and OnR are the equi-join attributes (OpJoin).
	OnL, OnR string
}

// predBinder produces the concrete selection condition of one plan step
// once parameters are bound.
type predBinder func(args []relation.Value) (engine.Pred, error)

// resToken is the symbolic result name of a templated plan; every temp name
// is derived from it, and Bind substitutes the concrete result name. The
// NUL byte keeps symbolic names out of the user's namespace.
const resToken = "\x00res"

// EnginePlan is a compiled statement: a sequence of native operators whose
// last step materializes Result. CompileEngine produces a templated plan
// (symbolic names, unbound parameters); Bind instantiates it.
type EnginePlan struct {
	Mode Mode
	Ops  []EngineOp
	// Result is the relation the final step materializes.
	Result string
	// Temps are the intermediate relations, in creation order; drop them
	// (in reverse) after reading the result.
	Temps []string
	// OutAttrs are the output attribute names.
	OutAttrs []string
	// NumParams counts the ? placeholders the plan binds at execute time.
	NumParams int
	// template marks a plan whose names are symbolic and whose selection
	// conditions await binding; Run rejects it.
	template bool
	// bases records the base relations the plan was resolved against and
	// their attribute lists at compile time; CatalogValid compares them to
	// the live catalog so stale cached plans recompile instead of running
	// against a changed schema.
	bases []boundBase
}

type boundBase struct {
	name  string
	attrs []string
}

// CatalogValid reports whether every base relation the plan resolved
// against still exists in the catalog with an identical attribute list.
func (p *EnginePlan) CatalogValid(cat Catalog) bool {
	for _, b := range p.bases {
		r := cat.Rel(b.name)
		if r == nil || !sameAttrs(r.Attrs, b.attrs) {
			return false
		}
	}
	return true
}

// enginePlansCompiled counts plan compilations process-wide; the session
// tests assert that a prepared statement executed repeatedly re-plans zero
// times.
var enginePlansCompiled atomic.Uint64

// EnginePlansCompiled reports how many engine plans have been compiled by
// this process. It is an instrumentation hook for tests and benchmarks.
func EnginePlansCompiled() uint64 { return enginePlansCompiled.Load() }

// Bind instantiates a templated plan: the symbolic result name becomes res
// (temps are renamed along with it) and the ? parameters are substituted
// into the selection conditions. The template is not consumed — it can be
// bound again, concurrently, with other arguments.
func (p *EnginePlan) Bind(res string, args []relation.Value) (*EnginePlan, error) {
	if !p.template {
		return nil, fmt.Errorf("sql: plan is already bound")
	}
	if err := checkArgs(p.NumParams, args); err != nil {
		return nil, err
	}
	sub := func(name string) string {
		if strings.HasPrefix(name, resToken) {
			return res + name[len(resToken):]
		}
		return name
	}
	out := &EnginePlan{Mode: p.Mode, Result: res, OutAttrs: p.OutAttrs, NumParams: p.NumParams}
	out.Ops = make([]EngineOp, len(p.Ops))
	for i, op := range p.Ops {
		op.Res, op.Src, op.Src2 = sub(op.Res), sub(op.Src), sub(op.Src2)
		if op.bind != nil {
			pred, err := op.bind(args)
			if err != nil {
				return nil, err
			}
			op.Pred = pred
			op.bind = nil
		}
		out.Ops[i] = op
	}
	for _, op := range out.Ops[:len(out.Ops)-1] {
		out.Temps = append(out.Temps, op.Res)
	}
	return out, nil
}

// Run executes the plan's operators on an arena — results never touch the
// shared store. A selection whose result only the next step — a projection —
// reads runs fused with it (Arena.SelectProject), so its temporary is never
// materialized; the plan's shape (Ops, EXPLAIN) is unchanged. On error every
// relation already created by the plan is dropped.
func (p *EnginePlan) Run(s *engine.Arena) error {
	if p.template {
		return fmt.Errorf("sql: plan is a template; Bind it first")
	}
	var created []string
	fail := func(err error) error {
		for i := len(created) - 1; i >= 0; i-- {
			s.DropRelation(created[i]) //nolint:errcheck // Run already fails with err
		}
		return err
	}
	for i := 0; i < len(p.Ops); i++ {
		op := p.Ops[i]
		var err error
		switch op.Kind {
		case OpSelect:
			if !p.feedsProjection(i) {
				err = s.Select(op.Res, op.Src, op.Pred)
				break
			}
			i++
			err = s.SelectProject(p.Ops[i].Res, op.Src, op.Pred, p.Ops[i].Attrs...)
			op = p.Ops[i]
		case OpProject:
			err = s.Project(op.Res, op.Src, op.Attrs...)
		case OpRename:
			err = s.Rename(op.Res, op.Src, op.Renames)
		case OpJoin:
			_, err = s.Join(op.Res, op.Src, op.Src2, op.OnL, op.OnR)
		case OpProduct:
			_, err = s.Product(op.Res, op.Src, op.Src2)
		case OpUnion:
			_, err = s.Union(op.Res, op.Src, op.Src2)
		case OpDifference:
			_, err = s.Difference(op.Res, op.Src, op.Src2)
		default:
			err = fmt.Errorf("sql: unknown plan operator %d", op.Kind)
		}
		if err != nil {
			return fail(err)
		}
		created = append(created, op.Res)
	}
	return nil
}

// feedsProjection reports whether step i's result is read only by step i+1,
// a projection.
func (p *EnginePlan) feedsProjection(i int) bool {
	if i+1 >= len(p.Ops) || p.Ops[i+1].Kind != OpProject || p.Ops[i+1].Src != p.Ops[i].Res {
		return false
	}
	for _, op := range p.Ops[i+2:] {
		if op.Src == p.Ops[i].Res || op.Src2 == p.Ops[i].Res {
			return false
		}
	}
	return true
}

// DropTemps drops the plan's intermediate relations, newest first (a fused
// selection's was never created). A result still pending over one of them
// is built first; the error is that of building it.
func (p *EnginePlan) DropTemps(s *engine.Arena) error {
	for i := len(p.Temps) - 1; i >= 0; i-- {
		if err := s.DropRelation(p.Temps[i]); err != nil {
			return err
		}
	}
	return nil
}

// CompileEngine compiles a statement into a templated engine plan: names
// are resolved against the catalog (a Store or Snapshot) and the operator
// shape is fixed, but relation names stay symbolic and ? parameters
// unbound. UNION and EXCEPT compile to the native engine union and
// difference; the across-world modes are recorded on the plan and handled
// by the executor.
func CompileEngine(st *Stmt, cat Catalog) (*EnginePlan, error) {
	return compileEngine(st, catalogView{cat})
}

func compileEngine(st *Stmt, cat catalog) (*EnginePlan, error) {
	enginePlansCompiled.Add(1)
	pl := &eplanner{cat: cat}
	rel, attrs, err := pl.node(st.Query)
	if err != nil {
		return nil, err
	}
	plan := &EnginePlan{
		Mode: st.Mode, Ops: pl.ops, Result: resToken, OutAttrs: attrs,
		NumParams: st.NumParams, template: true, bases: pl.bases,
	}
	if n := len(plan.Ops); n > 0 && plan.Ops[n-1].Res == rel {
		plan.Ops[n-1].Res = resToken
	} else {
		// The query reduced to a bare base relation: materialize a copy so
		// the result is always a fresh relation.
		plan.Ops = append(plan.Ops, EngineOp{Kind: OpRename, Res: resToken, Src: rel, Renames: map[string]string{}})
	}
	return plan, nil
}

type eplanner struct {
	cat   catalog
	ops   []EngineOp
	tmpN  int
	bases []boundBase
}

func (p *eplanner) tmp() string {
	p.tmpN++
	return fmt.Sprintf("%s\x00s%d", resToken, p.tmpN)
}

func (p *eplanner) add(op EngineOp) string {
	op.Res = p.tmp()
	p.ops = append(p.ops, op)
	return op.Res
}

func (p *eplanner) node(n Node) (string, []string, error) {
	switch n := n.(type) {
	case *SelectNode:
		return p.selectNode(n)
	case SetNode:
		lRel, lAttrs, err := p.node(n.L)
		if err != nil {
			return "", nil, err
		}
		rRel, rAttrs, err := p.node(n.R)
		if err != nil {
			return "", nil, err
		}
		if err := checkSetOpSchemas(n.Op, lAttrs, rAttrs); err != nil {
			return "", nil, err
		}
		kind := OpUnion
		if n.Op == SetExcept {
			kind = OpDifference
		}
		res := p.add(EngineOp{Kind: kind, Src: lRel, Src2: rRel})
		return res, lAttrs, nil
	}
	return "", nil, fmt.Errorf("sql: unknown query node %T", n)
}

func (p *eplanner) selectNode(sel *SelectNode) (string, []string, error) {
	b, err := resolveFrom(sel, p.cat)
	if err != nil {
		return "", nil, err
	}
	for _, t := range b.tables {
		p.bases = append(p.bases, boundBase{name: t.ref.Name, attrs: append([]string(nil), t.attrs...)})
	}
	conjs := flattenConjuncts(sel.Where)
	type conjInfo struct {
		e      Expr
		tables map[int]bool
		used   bool
	}
	infos := make([]conjInfo, len(conjs))
	for i, c := range conjs {
		ts, err := exprTables(b, c)
		if err != nil {
			return "", nil, err
		}
		infos[i] = conjInfo{e: c, tables: ts}
	}

	bareNamer := func(ti int) func(ColumnRef) (string, error) {
		return func(c ColumnRef) (string, error) {
			ci, attr, err := b.resolveColumn(c)
			if err != nil {
				return "", err
			}
			if ci != ti {
				return "", fmt.Errorf("sql: internal error: column %s does not belong to table %d", c, ti)
			}
			return attr, nil
		}
	}
	qualNamer := func(c ColumnRef) (string, error) {
		ti, attr, err := b.resolveColumn(c)
		if err != nil {
			return "", err
		}
		return b.internalName(ti, attr), nil
	}
	// selBinder defers predicate construction to bind time: the conjuncts
	// may hold ? parameters, so only the bound copy yields engine values.
	selBinder := func(exprs []Expr, name func(ColumnRef) (string, error)) predBinder {
		exprs = append([]Expr(nil), exprs...)
		return func(args []relation.Value) (engine.Pred, error) {
			ps := make([]engine.Pred, len(exprs))
			for i, e := range exprs {
				pred, err := exprToEnginePred(bindExpr(e, args), name)
				if err != nil {
					return nil, err
				}
				ps[i] = pred
			}
			return andOfEngine(ps), nil
		}
	}

	// Per table: push down its local conditions (constant-style conjuncts
	// as one selection, each same-tuple attribute comparison its own), then
	// qualify the attribute names when joining.
	planned := make([]string, len(b.tables))
	for ti, t := range b.tables {
		cur := t.ref.Name
		var group []Expr
		var atoms []Expr
		for i := range infos {
			in := &infos[i]
			if in.used || len(in.tables) != 1 || !in.tables[ti] {
				continue
			}
			if isAttrAttr(in.e) {
				atoms = append(atoms, in.e)
			} else {
				group = append(group, in.e)
			}
			in.used = true
		}
		if len(group) > 0 {
			cur = p.add(EngineOp{Kind: OpSelect, Src: cur, bind: selBinder(group, bareNamer(ti))})
		}
		for _, a := range atoms {
			cur = p.add(EngineOp{Kind: OpSelect, Src: cur, bind: selBinder([]Expr{a}, bareNamer(ti))})
		}
		if b.multi {
			renames := make(map[string]string, len(t.attrs))
			for _, a := range t.attrs {
				renames[a] = b.internalName(ti, a)
			}
			cur = p.add(EngineOp{Kind: OpRename, Src: cur, Renames: renames})
		}
		planned[ti] = cur
	}

	// Fold the tables left to right: the first unused cross-table equality
	// linking the accumulated join to the next table becomes an equi-join,
	// otherwise the pair is a plain product.
	acc := planned[0]
	inAcc := map[int]bool{0: true}
	for ti := 1; ti < len(b.tables); ti++ {
		joined := false
		for i := range infos {
			in := &infos[i]
			if in.used || !isAttrAttr(in.e) {
				continue
			}
			cmp := in.e.(CmpExpr)
			if cmp.Theta != relation.EQ {
				continue
			}
			li, la, err := b.resolveColumn(*cmp.L.Col)
			if err != nil {
				return "", nil, err
			}
			ri, ra, err := b.resolveColumn(*cmp.R.Col)
			if err != nil {
				return "", nil, err
			}
			if ri == ti && inAcc[li] {
				// keep sides as written
			} else if li == ti && inAcc[ri] {
				li, la, ri, ra = ri, ra, li, la
			} else {
				continue
			}
			acc = p.add(EngineOp{
				Kind: OpJoin, Src: acc, Src2: planned[ti],
				OnL: b.internalName(li, la), OnR: b.internalName(ri, ra),
			})
			in.used = true
			joined = true
			break
		}
		if !joined {
			acc = p.add(EngineOp{Kind: OpProduct, Src: acc, Src2: planned[ti]})
		}
		inAcc[ti] = true
	}

	// Remaining conditions (extra equalities, non-equality cross-table
	// comparisons, conditions over three or more tables) run on the join.
	var rest []Expr
	for i := range infos {
		if !infos[i].used {
			rest = append(rest, infos[i].e)
		}
	}
	if len(rest) > 0 {
		acc = p.add(EngineOp{Kind: OpSelect, Src: acc, bind: selBinder(rest, qualNamer)})
	}

	// Projection. SELECT * keeps the join result as is.
	if sel.Star {
		var out []string
		for ti, t := range b.tables {
			for _, a := range t.attrs {
				out = append(out, b.internalName(ti, a))
			}
		}
		return acc, out, nil
	}
	internal, final, err := resolveItems(sel, b)
	if err != nil {
		return "", nil, err
	}
	acc = p.add(EngineOp{Kind: OpProject, Src: acc, Attrs: internal})
	renames := make(map[string]string)
	for i := range internal {
		if final[i] != internal[i] {
			renames[internal[i]] = final[i]
		}
	}
	if len(renames) > 0 {
		acc = p.add(EngineOp{Kind: OpRename, Src: acc, Renames: renames})
	}
	return acc, final, nil
}

// resolveItems maps a SELECT list to the attribute names carried by the join
// result (internal) and the output names after AS aliases (final). Both must
// be duplicate-free: the engine projects by source attribute, and the output
// schema must name columns unambiguously.
func resolveItems(sel *SelectNode, b *binding) (internal, final []string, err error) {
	internal = make([]string, len(sel.Items))
	final = make([]string, len(sel.Items))
	seenIn := make(map[string]bool, len(sel.Items))
	seenOut := make(map[string]bool, len(sel.Items))
	for i, it := range sel.Items {
		ti, attr, err := b.resolveColumn(it.Col)
		if err != nil {
			return nil, nil, err
		}
		internal[i] = b.internalName(ti, attr)
		if seenIn[internal[i]] {
			return nil, nil, fmt.Errorf("sql: offset %d: duplicate column %s in SELECT list", it.Col.off, it.Col)
		}
		seenIn[internal[i]] = true
		final[i] = internal[i]
		if it.Alias != "" {
			final[i] = it.Alias
		}
		if seenOut[final[i]] {
			return nil, nil, fmt.Errorf("sql: offset %d: duplicate output column %q in SELECT list (alias one of them)", it.Col.off, final[i])
		}
		seenOut[final[i]] = true
	}
	return internal, final, nil
}

// setOpName renders a set operation as its SQL keyword.
func setOpName(op SetOpKind) string {
	if op == SetExcept {
		return "EXCEPT"
	}
	return "UNION"
}

// checkSetOpSchemas enforces the set-operation contract: the arms must
// produce identically named columns, compared after AS aliases apply. The
// per-world reference planner (oracle_test.go) routes through here too, so
// an aliased UNION/EXCEPT arm gets the same acceptance — and a mismatch the
// same error text — on either path.
func checkSetOpSchemas(op SetOpKind, l, r []string) error {
	if !sameAttrs(l, r) {
		return fmt.Errorf("sql: %s schema mismatch: %v vs %v", setOpName(op), l, r)
	}
	return nil
}

func sameAttrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
