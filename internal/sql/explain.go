package sql

import (
	"fmt"
	"sort"
	"strings"

	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/sqlrewrite"
)

// Explain parses the statement (the EXPLAIN keyword is optional here),
// compiles it for the engine, and renders every plan step as the exact
// Section 5 SQL rewriting internal/sqlrewrite generates for that algebra
// operation: Figure 16 for constant selections, the ext-based product and
// union scripts, and the recursive-PL/SQL notes for π, σ(AθB) and
// non-atomic conditions. The result relation is named P. The catalog may be
// a Store or a Snapshot (the session API explains against snapshots).
//
//maybms:deterministic EXPLAIN text is golden-tested; map order must not leak into it
func Explain(cat Catalog, input string) (string, error) {
	st, err := Parse(input)
	if err != nil {
		return "", err
	}
	return ExplainStmt(cat, st)
}

// ExplainStmt renders the Section 5 rewriting of a parsed statement. A
// parameterized statement explains fine — the plan shape never depends on a
// parameter — with the placeholders rendered as 0 and a header note.
//
//maybms:deterministic EXPLAIN text is golden-tested; map order must not leak into it
func ExplainStmt(cat Catalog, st *Stmt) (string, error) {
	tpl, err := CompileEngine(st, cat)
	if err != nil {
		return "", err
	}
	var args []relation.Value
	if st.NumParams > 0 {
		args = make([]relation.Value, st.NumParams)
		for i := range args {
			args[i] = relation.Int(0)
		}
	}
	plan, err := tpl.Bind("P", args)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- EXPLAIN %s\n", st.Query)
	if st.NumParams > 0 {
		fmt.Fprintf(&b, "-- %d bind parameter(s) rendered as the constant 0; the plan shape is identical for every binding\n", st.NumParams)
	}
	if st.Mode != ModePlain {
		fmt.Fprintf(&b, "-- %s applies across worlds (Section 6) to the result below, via the engine's native confidence fold\n", st.Mode)
	}
	// maxRows tracks |R|max through the plan: the slot-id bound the union
	// and product rewritings offset by.
	maxRows := make(map[string]int)
	rows := func(rel string) int {
		if n, ok := maxRows[rel]; ok {
			return n
		}
		if r := cat.Rel(rel); r != nil {
			return r.NumRows()
		}
		return 0
	}
	// attribute lists tracked through the plan.
	attrs := make(map[string][]string)
	relAttrs := func(rel string) []string {
		if a, ok := attrs[rel]; ok {
			return a
		}
		if r := cat.Rel(rel); r != nil {
			return r.Attrs
		}
		return nil
	}
	for _, op := range plan.Ops {
		switch op.Kind {
		case OpSelect:
			writeSelect(&b, op.Res, op.Src, relAttrs(op.Src), op.Pred)
			attrs[op.Res] = relAttrs(op.Src)
			maxRows[op.Res] = rows(op.Src)
		case OpProject:
			b.WriteString(sqlrewrite.ProjectNote(op.Res, op.Src, op.Attrs).String())
			attrs[op.Res] = op.Attrs
			maxRows[op.Res] = rows(op.Src)
		case OpRename:
			in := relAttrs(op.Src)
			if len(op.Renames) == 0 {
				b.WriteString(sqlrewrite.ProjectNote(op.Res, op.Src, in).String())
				attrs[op.Res] = in
				maxRows[op.Res] = rows(op.Src)
				break
			}
			olds := make([]string, 0, len(op.Renames))
			for old := range op.Renames {
				olds = append(olds, old)
			}
			sort.Strings(olds)
			cur, curAttrs := op.Src, in
			for i, old := range olds {
				step := op.Res
				if i < len(olds)-1 {
					step = fmt.Sprintf("%s~δ%d", op.Res, i+1)
				}
				b.WriteString(sqlrewrite.Rename(step, cur, curAttrs, old, op.Renames[old]).String())
				curAttrs = renameAttrs(curAttrs, old, op.Renames[old])
				cur = step
			}
			attrs[op.Res] = curAttrs
			maxRows[op.Res] = rows(op.Src)
		case OpJoin:
			tmp := op.Res + "~×"
			l, r := relAttrs(op.Src), relAttrs(op.Src2)
			b.WriteString(sqlrewrite.Product(tmp, op.Src, op.Src2, l, r, rows(op.Src2)).String())
			b.WriteString(sqlrewrite.SelectAttrNote(op.Res, tmp, op.OnL, relation.EQ, op.OnR).String())
			attrs[op.Res] = append(append([]string{}, l...), r...)
			maxRows[op.Res] = rows(op.Src) * rows(op.Src2)
		case OpProduct:
			l, r := relAttrs(op.Src), relAttrs(op.Src2)
			b.WriteString(sqlrewrite.Product(op.Res, op.Src, op.Src2, l, r, rows(op.Src2)).String())
			attrs[op.Res] = append(append([]string{}, l...), r...)
			maxRows[op.Res] = rows(op.Src) * rows(op.Src2)
		case OpUnion:
			b.WriteString(sqlrewrite.Union(op.Res, op.Src, op.Src2, relAttrs(op.Src), rows(op.Src)).String())
			attrs[op.Res] = relAttrs(op.Src)
			maxRows[op.Res] = rows(op.Src) + rows(op.Src2)
		case OpDifference:
			b.WriteString(sqlrewrite.Difference(op.Res, op.Src, op.Src2, relAttrs(op.Src)).String())
			attrs[op.Res] = relAttrs(op.Src)
			// The result keeps the left side's slots; matched slots are
			// marked ⊥ rather than removed.
			maxRows[op.Res] = rows(op.Src)
		}
	}
	// Plan temporaries carry a NUL byte to avoid colliding with user
	// relations; render them readably.
	return strings.ReplaceAll(b.String(), "\x00", "~"), nil
}

// writeSelect renders a selection as rewritings: a conjunction chains the
// Figure 16 script of each constant atom through intermediate results;
// attribute atoms and disjunctions fall back to the PL/SQL notes.
func writeSelect(b *strings.Builder, res, src string, attrs []string, p engine.Pred) {
	atoms, ok := p.(engine.And)
	if !ok {
		atoms = engine.And{p}
	}
	cur := src
	for i, atom := range atoms {
		step := res
		if i < len(atoms)-1 {
			step = fmt.Sprintf("%s~σ%d", res, i+1)
		}
		switch atom := atom.(type) {
		case engine.AttrConst:
			b.WriteString(sqlrewrite.SelectConst(step, cur, attrs, atom.Attr, atom.Theta, int64(atom.C)).String())
		case engine.AttrAttr:
			b.WriteString(sqlrewrite.SelectAttrNote(step, cur, atom.A, atom.Theta, atom.B).String())
		default:
			b.WriteString(sqlrewrite.SelectOrNote(step, cur, atom.String()).String())
		}
		cur = step
	}
}

func renameAttrs(attrs []string, old, new string) []string {
	out := append([]string{}, attrs...)
	for i, a := range out {
		if a == old {
			out[i] = new
		}
	}
	return out
}
