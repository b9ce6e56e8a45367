// Package sql is the SQL frontend over UWSDTs: a lexer, a recursive-descent
// parser, a planner, and a database/sql-shaped session API for the query
// language the MayBMS prototype grew around the Section 5 machinery. A
// statement compiles into a sequence of native operators on the scalable
// columnar engine (internal/engine) whose shapes mirror the hand-built
// Figure 29 plans, and one executor (exec.go) runs the bound plan wherever
// the session places it: a plain query on the authority snapshot, a
// distributable CONF()/POSSIBLE/CERTAIN query across the shard set.
// The across-world constructs CONF(), POSSIBLE and CERTAIN are computed
// natively on the columnar engine (engine.Arena.PossibleMasses over
// the pending result, read in place — neither the result relation nor a
// core.WSD is constructed on the query path); EXPLAIN
// emits the exact Section 5 SQL rewriting of every plan step via
// internal/sqlrewrite. The naive per-world evaluation of the same
// statements — the reference semantics — lives in this package's test
// files, where the differential suites compare the engine against it.
//
// The session API is the entry point: Open wraps a store in a DB,
// DB.Prepare compiles a statement once (plans are parameter-templated and
// cached per DB), Prepared.Query binds the ? placeholders and returns a
// Rows pull iterator with Next/Scan/Columns/Err/Close. Result relations and
// planner intermediates carry arena-scoped scratch names and are dropped
// on Rows.Close, so a long-lived store does not grow under repeated
// queries.
//
// The accepted subset, in EBNF (keywords are case-insensitive; identifiers
// are case-sensitive):
//
//	statement   = [ "EXPLAIN" ] query [ ";" ] .
//	query       = select { ( "UNION" | "EXCEPT" ) select } .
//	select      = "SELECT" head "FROM" tables [ "WHERE" disjunction ] .
//	head        = "CONF" "(" ")" | [ "POSSIBLE" | "CERTAIN" ] items .
//	items       = "*" | item { "," item } .
//	item        = column [ [ "AS" ] ident ] .
//	tables      = table { "," table } .
//	table       = ident [ [ "AS" ] ident ] .
//	column      = ident [ "." ident ] .
//	disjunction = conjunction { "OR" conjunction } .
//	conjunction = primary { "AND" primary } .
//	primary     = "(" disjunction ")" | comparison .
//	comparison  = operand op operand .
//	op          = "=" | "<>" | "!=" | "<" | "<=" | ">" | ">=" .
//	operand     = column | "?" | [ "-" ] number | string .
//
// Multiple FROM tables form a cross join; equality comparisons between two
// tables become equi-joins on the engine path. UNION compiles to the native
// engine union and EXCEPT to the native difference operator
// (engine.Difference, the Figure 9 − on the uniform encoding), so every
// statement of the grammar runs on the columnar engine. CONF(), POSSIBLE
// and CERTAIN may only head the leftmost select of a statement and apply to
// the whole query — including over UNION/EXCEPT results. Strings are
// single-quoted with ” as the escape; the parser accepts them, but the
// planner rejects them: the columnar store holds integer codes only.
//
// A ? is a positional bind parameter, accepted wherever the grammar takes a
// constant; parameters are numbered left to right and bound at execute
// time, and never affect the plan shape — one prepared plan serves every
// binding.
//
// Join queries qualify every output attribute as alias.attr; single-table
// queries keep bare names. UNION and EXCEPT arms must produce identically
// named columns; AS aliases rename output columns, so a join arm can combine
// with a single-table arm by aliasing its columns to bare names.
//
// Not yet covered (see ROADMAP "Open items"): aggregates beyond CONF(),
// GROUP BY, subqueries in FROM, and a REPAIR BY syntax for the chase.
package sql

import "maybms/internal/engine"

// Mode is the across-world construct heading a statement.
type Mode uint8

// The statement modes.
const (
	// ModePlain materializes the query result as a relation.
	ModePlain Mode = iota
	// ModeConf lists every possible result tuple with its confidence
	// (Figure 19, SELECT CONF()).
	ModeConf
	// ModePossible lists the tuples appearing in at least one world
	// (Figure 18).
	ModePossible
	// ModeCertain lists the tuples appearing in every world.
	ModeCertain
)

// String renders the mode as its SQL keyword.
func (m Mode) String() string {
	switch m {
	case ModeConf:
		return "CONF()"
	case ModePossible:
		return "POSSIBLE"
	case ModeCertain:
		return "CERTAIN"
	}
	return ""
}

// Result is the outcome of executing one statement.
type Result struct {
	// Mode is the statement's across-world construct.
	Mode Mode
	// Attrs are the output attribute names.
	Attrs []string
	// Relation names the result relation of a plain statement: the
	// arena-scoped scratch name of a query, or the installed name after
	// Materialize (the caller owns dropping that one). Empty for mode queries.
	Relation string
	// Stats are the representation statistics of the plain result.
	Stats engine.Stats
	// Tuples holds the answers of CONF()/POSSIBLE/CERTAIN queries in the
	// engine's native encoding, sorted canonically. For ModePossible and
	// non-probabilistic inputs the Conf fields are 0.
	Tuples []engine.TupleConf

	// arena holds the plain result out, read in place from the one snapshot
	// the plan ran on; Rows.Close releases it. Both are nil for mode
	// queries.
	arena *engine.Arena
	out   *engine.Selection
}
