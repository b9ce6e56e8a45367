package sql

import (
	"fmt"
	"sort"

	"maybms/internal/confidence"
	"maybms/internal/relation"
	"maybms/internal/worlds"
)

// The per-world reference path: the same statements compiled into
// worlds.Query algebra trees and evaluated naively in every world of an
// explicitly enumerated world-set. It is the oracle the differential suites
// of this package compare the engine against, and it lives in a test file so
// that nothing serving a request can link it.

// This file compiles statements into worlds.Query algebra trees, the
// reference semantics evaluated naively per world. The compiled tree uses
// the same name-resolution and pushdown decisions as the engine planner so
// both paths produce identically named output attributes.

type schemaCatalog struct{ s worlds.Schema }

func (c schemaCatalog) relAttrs(name string) ([]string, bool) {
	rs, ok := c.s.Rel(name)
	if !ok {
		return nil, false
	}
	return rs.Attrs, true
}

// exprToRelPred converts a condition to a relation predicate; name maps
// column references to attribute names.
func exprToRelPred(e Expr, name func(ColumnRef) (string, error)) (relation.Predicate, error) {
	switch e := e.(type) {
	case AndExpr:
		out := make(relation.And, len(e))
		for i, c := range e {
			p, err := exprToRelPred(c, name)
			if err != nil {
				return nil, err
			}
			out[i] = p
		}
		return out, nil
	case OrExpr:
		out := make(relation.Or, len(e))
		for i, c := range e {
			p, err := exprToRelPred(c, name)
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
			return relation.AttrAttr{A: a, Theta: theta, B: b}, nil
		}
		return relation.AttrConst{Attr: a, Theta: theta, Const: r.Val}, nil
	}
	return nil, fmt.Errorf("sql: unsupported condition %T", e)
}

func andOfRel(ps []relation.Predicate) relation.Predicate {
	if len(ps) == 1 {
		return ps[0]
	}
	return relation.And(ps)
}

// PlanWorlds compiles the statement's algebra into a worlds.Query. The
// across-world mode is not part of the algebra; ExecWorlds applies it to the
// evaluated world-set. Set-operation schemas are checked here with the same
// acceptance and error text as the engine planner (checkSetOpSchemas), so an
// aliased UNION/EXCEPT arm behaves identically on both paths instead of
// failing later inside worlds.Union.OutSchema with different wording.
func PlanWorlds(st *Stmt, schema worlds.Schema) (worlds.Query, error) {
	cat := schemaCatalog{schema}
	// Statements without a set operation have nothing to check, and the
	// extra resolution pass would only duplicate planWorldsNode's work.
	if _, ok := st.Query.(SetNode); ok {
		if _, err := nodeAttrs(st.Query, cat); err != nil {
			return nil, err
		}
	}
	return planWorldsNode(st.Query, cat)
}

func planWorldsNode(n Node, cat catalog) (worlds.Query, error) {
	switch n := n.(type) {
	case *SelectNode:
		return planWorldsSelect(n, cat)
	case SetNode:
		l, err := planWorldsNode(n.L, cat)
		if err != nil {
			return nil, err
		}
		r, err := planWorldsNode(n.R, cat)
		if err != nil {
			return nil, err
		}
		if n.Op == SetExcept {
			return worlds.Difference{L: l, R: r}, nil
		}
		return worlds.Union{L: l, R: r}, nil
	}
	return nil, fmt.Errorf("sql: unknown query node %T", n)
}

func planWorldsSelect(sel *SelectNode, cat catalog) (worlds.Query, error) {
	b, err := resolveFrom(sel, cat)
	if err != nil {
		return nil, err
	}
	conjs := flattenConjuncts(sel.Where)
	local := make([][]Expr, len(b.tables))
	var cross []Expr
	for _, c := range conjs {
		ts, err := exprTables(b, c)
		if err != nil {
			return nil, err
		}
		if len(ts) == 1 {
			for ti := range ts {
				local[ti] = append(local[ti], c)
			}
		} else {
			cross = append(cross, c)
		}
	}

	bareNamer := func(ti int) func(ColumnRef) (string, error) {
		return func(c ColumnRef) (string, error) {
			_, attr, err := b.resolveColumn(c)
			return attr, err
		}
	}
	qualNamer := func(c ColumnRef) (string, error) {
		ti, attr, err := b.resolveColumn(c)
		if err != nil {
			return "", err
		}
		return b.internalName(ti, attr), nil
	}

	// Per table: pushed-down selections, then renames qualifying every
	// attribute when the query joins.
	var q worlds.Query
	for ti, t := range b.tables {
		var tq worlds.Query = worlds.Base{Rel: t.ref.Name}
		var group []relation.Predicate
		var atoms []relation.Predicate
		for _, c := range local[ti] {
			p, err := exprToRelPred(c, bareNamer(ti))
			if err != nil {
				return nil, err
			}
			if isAttrAttr(c) {
				atoms = append(atoms, p)
			} else {
				group = append(group, p)
			}
		}
		if len(group) > 0 {
			tq = worlds.Select{Q: tq, Pred: andOfRel(group)}
		}
		for _, a := range atoms {
			tq = worlds.Select{Q: tq, Pred: a}
		}
		if b.multi {
			for _, a := range t.attrs {
				tq = worlds.Rename{Q: tq, Old: a, New: b.internalName(ti, a)}
			}
		}
		if q == nil {
			q = tq
		} else {
			q = worlds.Product{L: q, R: tq}
		}
	}

	// Cross-table conditions run on the product (the per-world evaluator
	// has no join operator; σ over × is its reference form).
	if len(cross) > 0 {
		preds := make([]relation.Predicate, len(cross))
		for i, c := range cross {
			p, err := exprToRelPred(c, qualNamer)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		q = worlds.Select{Q: q, Pred: andOfRel(preds)}
	}

	if sel.Star {
		return q, nil
	}
	internal, final, err := resolveItems(sel, b)
	if err != nil {
		return nil, err
	}
	q = worlds.Project{Q: q, Attrs: internal}
	// AS aliases become renames. They apply simultaneously on the engine
	// path, so route through unique temporaries here: a pairwise chain
	// would corrupt swaps like SELECT A AS B, B AS A.
	type rn struct{ old, new string }
	var changed []rn
	for i := range internal {
		if final[i] != internal[i] {
			changed = append(changed, rn{internal[i], final[i]})
		}
	}
	for i, r := range changed {
		q = worlds.Rename{Q: q, Old: r.old, New: fmt.Sprintf("\x00a%d", i)}
	}
	for i, r := range changed {
		q = worlds.Rename{Q: q, Old: fmt.Sprintf("\x00a%d", i), New: r.new}
	}
	return q, nil
}

// nodeAttrs resolves the output attribute names of a query node — post-AS,
// the names a set operation compares — checking every set operation on the
// way. The worlds planner uses it to apply the same schema acceptance as the
// engine planner (whose compilation computes the same lists itself).
func nodeAttrs(n Node, cat catalog) ([]string, error) {
	switch n := n.(type) {
	case *SelectNode:
		b, err := resolveFrom(n, cat)
		if err != nil {
			return nil, err
		}
		if n.Star {
			var out []string
			for ti, t := range b.tables {
				for _, a := range t.attrs {
					out = append(out, b.internalName(ti, a))
				}
			}
			return out, nil
		}
		_, final, err := resolveItems(n, b)
		return final, err
	case SetNode:
		l, err := nodeAttrs(n.L, cat)
		if err != nil {
			return nil, err
		}
		r, err := nodeAttrs(n.R, cat)
		if err != nil {
			return nil, err
		}
		if err := checkSetOpSchemas(n.Op, l, r); err != nil {
			return nil, err
		}
		return l, nil
	}
	return nil, fmt.Errorf("sql: unknown query node %T", n)
}

// bindStmt returns a copy of the statement with all parameters bound; the
// per-world planner compiles the bound copy directly.
func bindStmt(st *Stmt, args []relation.Value) (*Stmt, error) {
	if err := checkArgs(st.NumParams, args); err != nil {
		return nil, err
	}
	if st.NumParams == 0 {
		return st, nil
	}
	out := *st
	out.Query = bindNode(st.Query, args)
	out.NumParams = 0
	return &out, nil
}

func bindNode(n Node, args []relation.Value) Node {
	switch n := n.(type) {
	case *SelectNode:
		c := *n
		c.Where = bindExpr(n.Where, args)
		return &c
	case SetNode:
		return SetNode{Op: n.Op, L: bindNode(n.L, args), R: bindNode(n.R, args)}
	}
	return n
}

// worldsResult is the outcome of one per-world execution.
type worldsResult struct {
	Mode  Mode
	Attrs []string
	// Tuples holds the answers of CONF()/POSSIBLE/CERTAIN statements, sorted
	// canonically.
	Tuples []confidence.TupleConf
	// WorldSet is the evaluated world-set of a plain statement.
	WorldSet *worlds.WorldSet
}

// ExecWorlds executes a parsed statement under the per-world reference
// semantics: the query is evaluated in every world of ws, and the mode is
// applied across the resulting world-set. For non-probabilistic world-sets
// CONF() fails, POSSIBLE reports Conf 0, and CERTAIN keeps the tuples
// present in every world.
func ExecWorlds(st *Stmt, ws *worlds.WorldSet, result string) (*worldsResult, error) {
	return execWorldsBound(st, ws, result, nil)
}

func execWorldsBound(st *Stmt, ws *worlds.WorldSet, result string, args []relation.Value) (*worldsResult, error) {
	if st.Explain {
		return nil, fmt.Errorf("sql: statement is EXPLAIN; use Explain to render the rewriting")
	}
	bound, err := bindStmt(st, args)
	if err != nil {
		return nil, err
	}
	q, err := PlanWorlds(bound, ws.Schema)
	if err != nil {
		return nil, err
	}
	return evalWorlds(st.Mode, q, ws, result)
}

// evalWorlds evaluates a compiled per-world plan and applies the mode
// across the resulting world-set.
func evalWorlds(mode Mode, q worlds.Query, ws *worlds.WorldSet, result string) (*worldsResult, error) {
	outSchema, err := q.OutSchema(ws.Schema)
	if err != nil {
		return nil, err
	}
	evaluated, err := worlds.EvalWorldSet(q, ws, result)
	if err != nil {
		return nil, err
	}
	out := &worldsResult{Mode: mode, Attrs: outSchema.Attrs()}
	if mode == ModePlain {
		out.WorldSet = evaluated
		return out, nil
	}
	prob := evaluated.Probabilistic()
	if mode == ModeConf && !prob {
		return nil, fmt.Errorf("sql: CONF() requires a probabilistic world-set")
	}
	type acc struct {
		tuple relation.Tuple
		conf  float64
		n     int // worlds containing the tuple
	}
	sums := make(map[string]*acc)
	for i, w := range evaluated.Worlds {
		r := w.Rel(result)
		for _, t := range r.Tuples() {
			k := t.Key()
			a := sums[k]
			if a == nil {
				a = &acc{tuple: t}
				sums[k] = a
			}
			a.conf += evaluated.Probs[i]
			a.n++
		}
	}
	var tcs []confidence.TupleConf
	for _, a := range sums {
		if mode == ModeCertain {
			if prob && a.conf < 1-certainEps {
				continue
			}
			if !prob && a.n < evaluated.Size() {
				continue
			}
		}
		tcs = append(tcs, confidence.TupleConf{Tuple: a.tuple, Conf: a.conf})
	}
	sort.Slice(tcs, func(i, j int) bool {
		return relation.CompareTuples(tcs[i].Tuple, tcs[j].Tuple) < 0
	})
	out.Tuples = tcs
	return out, nil
}

// worldsStmt is a statement prepared against an explicit world-set.
type worldsStmt struct {
	st   *Stmt
	ws   *worlds.WorldSet
	cols []string
	// plan is the compiled algebra, evaluated directly by parameter-free
	// statements. With parameters each execution re-plans from the bound
	// statement (worlds.Query embeds concrete constants, so the bound tree
	// must be rebuilt) — acceptable on the naive reference path, whose
	// evaluation dwarfs planning.
	plan worlds.Query
}

// PrepareWorlds compiles a statement against a world-set under the
// per-world reference semantics.
func PrepareWorlds(ws *worlds.WorldSet, query string) (*worldsStmt, error) {
	st, err := Parse(query)
	if err != nil {
		return nil, err
	}
	if st.Explain {
		return nil, fmt.Errorf("sql: statement is EXPLAIN; use Explain to render the rewriting")
	}
	// Plan once: the output schema never depends on parameter values, and a
	// parameter-free plan is reused verbatim by every execution.
	q, err := PlanWorlds(st, ws.Schema)
	if err != nil {
		return nil, err
	}
	outSchema, err := q.OutSchema(ws.Schema)
	if err != nil {
		return nil, err
	}
	return &worldsStmt{st: st, ws: ws, cols: outSchema.Attrs(), plan: q}, nil
}

func (e *worldsStmt) Columns() []string { return e.cols }

// Query binds args and evaluates the statement in every world; plain
// results are named \x00result.
func (e *worldsStmt) Query(args ...any) (*worldsResult, error) {
	vals, err := valuesOf(args)
	if err != nil {
		return nil, err
	}
	if e.st.NumParams == 0 {
		if err := checkArgs(0, vals); err != nil {
			return nil, err
		}
		return evalWorlds(e.st.Mode, e.plan, e.ws, "\x00result")
	}
	return execWorldsBound(e.st, e.ws, "\x00result", vals)
}
