// Command wsdcli is a small driver for the census pipeline on the UWSDT
// engine: generate a noisy census relation, clean it with the Figure 25
// dependencies, run the Figure 29 queries, and inspect representation
// statistics — the end-to-end workflow of Section 9 in one binary.
//
// Usage:
//
//	wsdcli [-rows 100000] [-density 0.0001] [-seed 42] [-queries Q1,Q3] [-skip-chase]
//	wsdcli -sql [-rows 10000] [-density 0.0001]          # interactive SQL REPL
//	wsdcli -exec "SELECT CONF() FROM R WHERE YEARSCH = 17"   # exits 1 if any statement fails
//	wsdcli -connect 127.0.0.1:5439 [-sql | -exec ...]    # same REPL over a maybmsd server
//
// With -sql the binary prepares (and optionally chases) the census relation
// R, opens a SQL session over the store, and reads semicolon-terminated
// statements from stdin; with -exec it runs the given statements and exits.
// With -connect the session runs over the wire instead: the REPL speaks the
// maybmsd protocol (docs/wire-protocol.md) through internal/server/client,
// and all data stays on the server — the same commands work unchanged.
// The accepted SQL subset — including ? parameters, AS aliases, CONF(),
// POSSIBLE, CERTAIN and EXPLAIN — is documented on internal/sql. REPL meta
// commands:
//
//	\d                  list relations
//	\stats REL          representation statistics
//	\prepare NAME SQL   compile a (parameterized) statement once
//	\exec NAME [ARGS]   run a prepared statement with bound arguments
//	\stmts              list prepared statements
//	\materialize R SQL  run a plain query and install its result as R
//	\save PATH          write the store as a binary snapshot (local sessions)
//	\restore PATH       replace the store from a snapshot (local sessions)
//	\q                  quit
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"maybms/internal/bench"
	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/server/client"
	"maybms/internal/sql"
	"maybms/internal/storage"
)

func main() {
	rows := flag.Int("rows", 100000, "census relation size")
	density := flag.Float64("density", 0.0001, "placeholder density (fraction of fields)")
	seed := flag.Int64("seed", 42, "random seed")
	queries := flag.String("queries", strings.Join(census.QueryNames, ","), "queries to run")
	skipChase := flag.Bool("skip-chase", false, "skip the data-cleaning chase")
	sqlMode := flag.Bool("sql", false, "start an interactive SQL REPL over the census relation R")
	exec := flag.String("exec", "", "execute the given semicolon-separated SQL statements and exit")
	connect := flag.String("connect", "", "run the SQL session against a maybmsd server at this address")
	limit := flag.Int("limit", 20, "maximum tuples to decode and print per SQL result")
	flag.Parse()

	if *connect != "" {
		// Remote session: no local data at all — the server owns the store.
		conn, err := client.Dial(*connect)
		fail(err)
		defer conn.Close()
		fmt.Printf("connected to %s (%s)\n", *connect, conn.Banner())
		repl := newREPL(remoteBackend{conn}, *limit)
		if *exec != "" {
			if !repl.run(strings.NewReader(*exec), false) {
				conn.Close()
				os.Exit(1)
			}
			return
		}
		fmt.Println("remote SQL REPL — end statements with ';', \\q quits")
		repl.run(os.Stdin, true)
		return
	}

	fmt.Printf("generating census relation: %d tuples × %d attributes, density %.3f%%\n",
		*rows, len(census.Attrs), *density*100)
	start := time.Now()
	p, err := bench.Prepare(*rows, *density, *seed)
	fail(err)
	fmt.Printf("  %d or-sets introduced in %s\n", p.OrSets, time.Since(start).Round(time.Millisecond))
	printStats(p.Store.Stats("R"), "R", "initial")

	if !*skipChase {
		start = time.Now()
		err = p.Store.ChaseEGDsOpt("R", census.Dependencies(), engine.ChaseOptions{AssumeClean: true})
		fail(err)
		fmt.Printf("chased %d dependencies in %s\n", len(census.Dependencies()), time.Since(start).Round(time.Millisecond))
		printStats(p.Store.Stats("R"), "R", "after chase")
	}

	if *exec != "" {
		repl := newREPL(&localBackend{db: sql.Open(p.Store)}, *limit)
		if !repl.run(strings.NewReader(*exec), false) {
			os.Exit(1)
		}
		return
	}
	if *sqlMode {
		fmt.Println("SQL REPL over relation R — end statements with ';', \\q quits")
		repl := newREPL(&localBackend{db: sql.Open(p.Store)}, *limit)
		repl.run(os.Stdin, true)
		return
	}

	for _, q := range strings.Split(*queries, ",") {
		q = strings.TrimSpace(q)
		if q == "" {
			continue
		}
		// Each query runs on a private arena over a snapshot — the store is
		// never written, and dropping the result is dropping the arena.
		res := "res" + q
		start = time.Now()
		ar := engine.NewArena(p.Store.Snapshot())
		err = census.Run(ar, q, "R", res)
		fail(err)
		fmt.Printf("%s evaluated in %s\n", q, time.Since(start).Round(time.Microsecond))
		printStats(ar.Stats(res), res, "result")
	}
}

// backend is what the REPL needs from a SQL session; localBackend serves it
// from an in-process store, remoteBackend from a maybmsd server. The shapes
// are deliberately those of internal/sql and internal/server/client, so the
// adapters below are one line each.
type backend interface {
	Prepare(text string) (stmt, error)
	Query(text string, args ...any) (resultRows, error)
	Explain(text string) (string, error)
	Catalog() ([]client.RelInfo, error)
	// Materialize runs a plain query and installs its result relation.
	Materialize(res, text string, args ...any) (engine.Stats, error)
	// Save and Restore move the store through the binary snapshot format;
	// remote sessions refuse them (the server owns the store).
	Save(path string) error
	Restore(path string) error
}

type stmt interface {
	Text() string
	Columns() []string
	NumParams() int
	Query(args ...any) (resultRows, error)
}

// resultRows is the intersection of *sql.Rows and *client.Rows the printer
// uses.
type resultRows interface {
	Columns() []string
	Mode() sql.Mode
	Stats() engine.Stats
	Len() int
	Next() bool
	Scan(dest ...any) error
	Conf() float64
	Err() error
	Close() error
}

// localBackend runs the session in-process over an engine store. It is a
// pointer type: \restore swaps the whole session for one opened over the
// loaded store.
type localBackend struct{ db *sql.DB }

type localStmt struct{ *sql.Prepared }

func (s localStmt) Query(args ...any) (resultRows, error) {
	rows, err := s.Prepared.Query(args...)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func (b *localBackend) Prepare(text string) (stmt, error) {
	st, err := b.db.Prepare(text)
	if err != nil {
		return nil, err
	}
	return localStmt{st}, nil
}

func (b *localBackend) Query(text string, args ...any) (resultRows, error) {
	rows, err := b.db.Query(text, args...)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func (b *localBackend) Explain(text string) (string, error) { return b.db.Explain(text) }

func (b *localBackend) Materialize(res, text string, args ...any) (engine.Stats, error) {
	out, err := b.db.Materialize(res, text, args...)
	if err != nil {
		return engine.Stats{}, err
	}
	return out.Stats, nil
}

// Save writes the session's store as a binary snapshot file.
func (b *localBackend) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := storage.Save(b.db, f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// Restore replaces the session's store with one loaded from a snapshot
// file. The old session is closed; its prepared statements die with it.
func (b *localBackend) Restore(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := storage.Load(f)
	if err != nil {
		return err
	}
	old := b.db
	b.db = sql.Open(st)
	old.Close()
	return nil
}

func (b *localBackend) Catalog() ([]client.RelInfo, error) { return b.db.Catalog(), nil }

// remoteBackend runs the session over the wire.
type remoteBackend struct{ c *client.Conn }

type remoteStmt struct{ *client.Stmt }

func (s remoteStmt) Query(args ...any) (resultRows, error) {
	rows, err := s.Stmt.Query(args...)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func (b remoteBackend) Prepare(text string) (stmt, error) {
	st, err := b.c.Prepare(text)
	if err != nil {
		return nil, err
	}
	return remoteStmt{st}, nil
}

func (b remoteBackend) Query(text string, args ...any) (resultRows, error) {
	rows, err := b.c.Query(text, args...)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func (b remoteBackend) Explain(text string) (string, error) { return b.c.Explain(text) }

func (b remoteBackend) Materialize(res, text string, args ...any) (engine.Stats, error) {
	return b.c.Materialize(res, text, args...)
}

func (b remoteBackend) Save(string) error {
	return fmt.Errorf("\\save is local-only; the server owns the store (run maybmsd -data for durability)")
}

func (b remoteBackend) Restore(string) error {
	return fmt.Errorf("\\restore is local-only; the server owns the store (run maybmsd -data for durability)")
}

func (b remoteBackend) Catalog() ([]client.RelInfo, error) { return b.c.Catalog() }

// repl is the interactive SQL session: one backend plus the named statements
// \prepare compiled.
type repl struct {
	db    backend
	limit int
	stmts map[string]stmt
}

func newREPL(b backend, limit int) *repl {
	return &repl{db: b, limit: limit, stmts: make(map[string]stmt)}
}

// errQuit is what meta returns for \q.
var errQuit = errors.New("quit")

// run reads semicolon-terminated statements (and backslash meta commands)
// and executes them through the session. A failing statement or meta command
// prints its error and the session carries on; run reports whether every one
// succeeded.
func (r *repl) run(in io.Reader, interactive bool) bool {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if interactive {
			fmt.Print("sql> ")
		}
	}
	succeeded := true
	// report prints a failure and records it for the result.
	report := func(err error) {
		if err != nil {
			fmt.Println(err)
			succeeded = false
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		if buf.Len() == 0 {
			trimmed := strings.TrimSpace(line)
			if trimmed == "" {
				prompt()
				continue
			}
			if strings.HasPrefix(trimmed, "\\") {
				err := r.meta(trimmed)
				if err == errQuit {
					return succeeded
				}
				report(err)
				prompt()
				continue
			}
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		for {
			stmtText, rest, ok := splitStatement(buf.String())
			if !ok {
				break
			}
			buf.Reset()
			if strings.TrimSpace(rest) != "" {
				buf.WriteString(rest)
			}
			report(r.runOne(stmtText))
		}
		if buf.Len() == 0 {
			prompt()
		} else if interactive {
			fmt.Print("  -> ")
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "wsdcli: reading input:", err)
		return false
	}
	// A trailing statement without ';' still runs (convenient for -exec).
	if strings.TrimSpace(buf.String()) != "" {
		report(r.runOne(buf.String()))
	}
	return succeeded
}

// splitStatement cuts the input at the first semicolon outside quotes.
func splitStatement(input string) (stmt, rest string, ok bool) {
	inStr := false
	for i := 0; i < len(input); i++ {
		switch input[i] {
		case '\'':
			inStr = !inStr
		case ';':
			if !inStr {
				return input[:i], input[i+1:], true
			}
		}
	}
	return "", input, false
}

// meta executes a backslash command; it returns errQuit to quit.
func (r *repl) meta(cmd string) error {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return errQuit
	case "\\d":
		rels, err := r.db.Catalog()
		if err != nil {
			return err
		}
		for _, ri := range rels {
			fmt.Printf("  %s(%s)  |R|=%d placeholders=%d\n",
				ri.Name, strings.Join(ri.Attrs, ", "), ri.Stats.RSize, ri.Placeholders)
		}
	case "\\stats":
		if len(fields) < 2 {
			return errors.New("usage: \\stats REL")
		}
		rels, err := r.db.Catalog()
		if err != nil {
			return err
		}
		found := false
		for _, ri := range rels {
			if ri.Name == fields[1] {
				printStats(ri.Stats, ri.Name, "stats")
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown relation %q", fields[1])
		}
	case "\\prepare":
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, fields[0]))
		name, text, ok := strings.Cut(rest, " ")
		if !ok || strings.TrimSpace(text) == "" {
			return errors.New("usage: \\prepare NAME SELECT ...")
		}
		stmt, err := r.db.Prepare(strings.TrimSuffix(strings.TrimSpace(text), ";"))
		if err != nil {
			return err
		}
		r.stmts[name] = stmt
		fmt.Printf("prepared %s: %d parameter(s), columns (%s)\n",
			name, stmt.NumParams(), strings.Join(stmt.Columns(), ", "))
	case "\\exec":
		if len(fields) < 2 {
			return errors.New("usage: \\exec NAME [ARGS]")
		}
		stmt, ok := r.stmts[fields[1]]
		if !ok {
			return fmt.Errorf("no prepared statement %q (try \\prepare)", fields[1])
		}
		args := make([]any, 0, len(fields)-2)
		for _, f := range fields[2:] {
			if n, err := strconv.ParseInt(f, 10, 64); err == nil {
				args = append(args, n)
			} else {
				args = append(args, strings.Trim(f, "'"))
			}
		}
		start := time.Now()
		rows, err := stmt.Query(args...)
		if err != nil {
			return err
		}
		return r.printRows(rows, time.Since(start))
	case "\\stmts":
		names := make([]string, 0, len(r.stmts))
		for name := range r.stmts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %s: %s\n", name, r.stmts[name].Text())
		}
	case "\\materialize":
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, fields[0]))
		name, text, ok := strings.Cut(rest, " ")
		if !ok || strings.TrimSpace(text) == "" {
			return errors.New("usage: \\materialize REL SELECT ...")
		}
		st, err := r.db.Materialize(name, strings.TrimSuffix(strings.TrimSpace(text), ";"))
		if err != nil {
			return err
		}
		fmt.Printf("materialized %s\n", name)
		printStats(st, name, "stored")
	case "\\save":
		if len(fields) != 2 {
			return errors.New("usage: \\save PATH")
		}
		if err := r.db.Save(fields[1]); err != nil {
			return err
		}
		fmt.Printf("saved snapshot to %s\n", fields[1])
	case "\\restore":
		if len(fields) != 2 {
			return errors.New("usage: \\restore PATH")
		}
		if err := r.db.Restore(fields[1]); err != nil {
			return err
		}
		// The old session — and every statement prepared on it — is gone.
		r.stmts = make(map[string]stmt)
		fmt.Printf("restored store from %s\n", fields[1])
	default:
		return fmt.Errorf("unknown command %s (try \\d, \\stats REL, \\prepare, \\exec, \\stmts, \\materialize, \\save, \\restore, \\q)", fields[0])
	}
	return nil
}

// runOne executes a single statement through the session, printing the
// result.
func (r *repl) runOne(text string) error {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil
	}
	if st, err := sql.Parse(text); err == nil && st.Explain {
		out, err := r.db.Explain(text)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	start := time.Now()
	rows, err := r.db.Query(text)
	if err != nil {
		return err
	}
	return r.printRows(rows, time.Since(start))
}

// printRows renders a result: across-world answers as tuples with
// confidences, plain results as representation statistics plus up to limit
// decoded template rows ('?' marks uncertain fields).
func (r *repl) printRows(rows resultRows, elapsed time.Duration) error {
	defer rows.Close()
	vals := make([]relation.Value, len(rows.Columns()))
	dests := make([]any, len(vals))
	for i := range vals {
		dests[i] = &vals[i]
	}
	render := func() (string, bool) {
		parts := make([]string, len(vals))
		uncertain := false
		for i, v := range vals {
			parts[i] = v.String()
			if v.IsPlaceholder() {
				uncertain = true
			}
		}
		return strings.Join(parts, ", "), uncertain
	}
	if mode := rows.Mode(); mode != sql.ModePlain {
		total := rows.Len()
		fmt.Printf("%s: %d tuples in %s\n", mode, total, elapsed.Round(time.Microsecond))
		fmt.Printf("  (%s)\n", strings.Join(rows.Columns(), ", "))
		n := 0
		for rows.Next() {
			if n >= r.limit {
				fmt.Printf("  ... %d more\n", total-r.limit)
				break
			}
			if err := rows.Scan(dests...); err != nil {
				return err
			}
			line, _ := render()
			if mode == sql.ModeConf {
				fmt.Printf("  (%s)  conf=%.6g\n", line, rows.Conf())
			} else {
				fmt.Printf("  (%s)\n", line)
			}
			n++
		}
		return rows.Err()
	}
	fmt.Printf("evaluated in %s\n", elapsed.Round(time.Microsecond))
	printStats(rows.Stats(), "result", "result")
	if rows.Len() > r.limit {
		return nil
	}
	fmt.Printf("  (%s)\n", strings.Join(rows.Columns(), ", "))
	uncertain := false
	for rows.Next() {
		if err := rows.Scan(dests...); err != nil {
			return err
		}
		line, unc := render()
		uncertain = uncertain || unc
		fmt.Printf("  (%s)\n", line)
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if uncertain {
		fmt.Println("  ('?' fields are uncertain; use SELECT POSSIBLE or SELECT CONF() to decode)")
	}
	return nil
}

func printStats(st engine.Stats, rel, label string) {
	fmt.Printf("  %-12s %s: #comp=%d #comp>1=%d |C|=%d |R|=%d\n",
		label, rel, st.NumComp, st.NumCompGT1, st.CSize, st.RSize)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsdcli:", err)
		os.Exit(1)
	}
}
