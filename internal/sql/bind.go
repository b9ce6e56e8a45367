package sql

import (
	"fmt"

	"maybms/internal/relation"
)

// Parameter binding: a statement parsed with ? placeholders is a template;
// binding substitutes the positional argument values into its condition
// trees. The query shape — which conjuncts push below which table, which
// equality becomes a join — never depends on a parameter, only on column
// references, so a plan compiled from the template is valid for every
// binding.

// checkArgs validates an argument vector against a parameter count.
func checkArgs(numParams int, args []relation.Value) error {
	if len(args) != numParams {
		return fmt.Errorf("sql: statement has %d parameter(s), %d argument(s) bound", numParams, len(args))
	}
	for i, v := range args {
		switch v.Kind() {
		case relation.KindInt, relation.KindString:
		default:
			return fmt.Errorf("sql: argument %d is %s; only integer and string values bind", i+1, v)
		}
	}
	return nil
}

// bindOperand substitutes a parameter operand with its bound value.
func bindOperand(o Operand, args []relation.Value) Operand {
	if !o.IsParam() {
		return o
	}
	return Operand{Val: args[o.Param-1]}
}

// bindExpr returns a copy of e with every ? parameter replaced by its bound
// value. The input tree is never mutated, so one template serves many
// concurrent bindings.
func bindExpr(e Expr, args []relation.Value) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case AndExpr:
		out := make(AndExpr, len(e))
		for i, c := range e {
			out[i] = bindExpr(c, args)
		}
		return out
	case OrExpr:
		out := make(OrExpr, len(e))
		for i, c := range e {
			out[i] = bindExpr(c, args)
		}
		return out
	case CmpExpr:
		return CmpExpr{L: bindOperand(e.L, args), R: bindOperand(e.R, args), Theta: e.Theta}
	}
	return e
}
