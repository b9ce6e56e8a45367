package core

import (
	"fmt"

	"maybms/internal/relation"
	"maybms/internal/worlds"
)

// Evaluator translates relational algebra queries (the worlds.Query AST) into
// sequences of WSD operations: the Q ↦ Q̂ translation of Section 4. The
// result of each subquery is materialized as an auxiliary relation inside
// the same WSD, which keeps it correlated with the inputs; auxiliary
// relations are dropped when no longer needed.
type Evaluator struct {
	W       *WSD
	gensym  int
	temps   []string
	KeepAux bool // keep auxiliary relations (for debugging)
}

// NewEvaluator creates an evaluator over w.
func NewEvaluator(w *WSD) *Evaluator { return &Evaluator{W: w} }

// Eval evaluates q and materializes its result as relation res in the WSD.
// Auxiliary intermediate relations are dropped before returning.
func (e *Evaluator) Eval(q worlds.Query, res string) error {
	name, err := e.eval(q)
	if err != nil {
		e.cleanup()
		return err
	}
	// Bind the final temp to the requested name via a copy, then drop temps.
	if err := e.W.Copy(res, name); err != nil {
		e.cleanup()
		return err
	}
	e.cleanup()
	return nil
}

func (e *Evaluator) cleanup() {
	if e.KeepAux {
		e.temps = nil
		return
	}
	for _, t := range e.temps {
		e.W.DropRelation(t)
	}
	e.temps = nil
}

func (e *Evaluator) fresh() string {
	e.gensym++
	name := fmt.Sprintf("\x00aux%d", e.gensym)
	e.temps = append(e.temps, name)
	return name
}

// eval returns the name of the relation holding q's result.
func (e *Evaluator) eval(q worlds.Query) (string, error) {
	switch q := q.(type) {
	case worlds.Base:
		// Work on a copy so selections never mutate base relations.
		res := e.fresh()
		if err := e.W.Copy(res, q.Rel); err != nil {
			return "", err
		}
		return res, nil
	case worlds.Select:
		in, err := e.eval(q.Q)
		if err != nil {
			return "", err
		}
		return e.evalSelect(in, q.Pred)
	case worlds.Project:
		in, err := e.eval(q.Q)
		if err != nil {
			return "", err
		}
		res := e.fresh()
		return res, e.W.Project(res, in, q.Attrs...)
	case worlds.Product:
		l, err := e.eval(q.L)
		if err != nil {
			return "", err
		}
		r, err := e.eval(q.R)
		if err != nil {
			return "", err
		}
		res := e.fresh()
		return res, e.W.Product(res, l, r)
	case worlds.Union:
		l, err := e.eval(q.L)
		if err != nil {
			return "", err
		}
		r, err := e.eval(q.R)
		if err != nil {
			return "", err
		}
		res := e.fresh()
		return res, e.W.Union(res, l, r)
	case worlds.Difference:
		l, err := e.eval(q.L)
		if err != nil {
			return "", err
		}
		r, err := e.eval(q.R)
		if err != nil {
			return "", err
		}
		res := e.fresh()
		return res, e.W.Difference(res, l, r)
	case worlds.Rename:
		in, err := e.eval(q.Q)
		if err != nil {
			return "", err
		}
		res := e.fresh()
		return res, e.W.Rename(res, in, q.Old, q.New)
	}
	return "", fmt.Errorf("core: unknown query node %T", q)
}

// evalSelect compiles a general predicate into the two selection primitives
// of Figure 9: conjunctions become operator chains (σ_{p∧q} = σ_p ∘ σ_q),
// disjunctions become unions of selections, and negation is pushed to the
// atoms where it flips the comparison operator.
func (e *Evaluator) evalSelect(in string, p relation.Predicate) (string, error) {
	switch p := p.(type) {
	case relation.AttrConst:
		res := e.fresh()
		return res, e.W.SelectConst(res, in, p.Attr, p.Theta, p.Const)
	case relation.AttrAttr:
		res := e.fresh()
		return res, e.W.SelectAttr(res, in, p.A, p.Theta, p.B)
	case relation.And:
		cur := in
		for _, q := range p {
			next, err := e.evalSelect(cur, q)
			if err != nil {
				return "", err
			}
			cur = next
		}
		if cur == in { // empty conjunction: σ_true(in) = in, but return a copy
			res := e.fresh()
			return res, e.W.Copy(res, in)
		}
		return cur, nil
	case relation.Or:
		if len(p) == 0 {
			// σ_false: select a condition no tuple satisfies. ⊥ fails every
			// comparison, so A ≠ A... does not work on constants; instead
			// select attr < itself, which is always false.
			attrs, ok := e.W.RelAttrs(in)
			if !ok || len(attrs) == 0 {
				return "", fmt.Errorf("core: empty disjunction over unknown relation %q", in)
			}
			res := e.fresh()
			return res, e.W.SelectAttr(res, in, attrs[0], relation.LT, attrs[0])
		}
		cur, err := e.evalSelect(in, p[0])
		if err != nil {
			return "", err
		}
		for _, q := range p[1:] {
			branch, err := e.evalSelect(in, q)
			if err != nil {
				return "", err
			}
			next := e.fresh()
			if err := e.W.Union(next, cur, branch); err != nil {
				return "", err
			}
			cur = next
		}
		return cur, nil
	case relation.Not:
		inner, err := negate(p.P)
		if err != nil {
			return "", err
		}
		return e.evalSelect(in, inner)
	}
	return "", fmt.Errorf("core: unsupported predicate %T", p)
}

// negate pushes a negation one level down (negation normal form step).
func negate(p relation.Predicate) (relation.Predicate, error) {
	switch p := p.(type) {
	case relation.AttrConst:
		return relation.AttrConst{Attr: p.Attr, Theta: p.Theta.Negate(), Const: p.Const}, nil
	case relation.AttrAttr:
		return relation.AttrAttr{A: p.A, Theta: p.Theta.Negate(), B: p.B}, nil
	case relation.Not:
		return p.P, nil
	case relation.And:
		out := make(relation.Or, len(p))
		for i, q := range p {
			n, err := negate(q)
			if err != nil {
				return nil, err
			}
			out[i] = n
		}
		return out, nil
	case relation.Or:
		out := make(relation.And, len(p))
		for i, q := range p {
			n, err := negate(q)
			if err != nil {
				return nil, err
			}
			out[i] = n
		}
		return out, nil
	}
	return nil, fmt.Errorf("core: cannot negate predicate %T", p)
}
