package sql

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"maybms/internal/engine"
	"maybms/internal/relation"
)

// renderRows renders one execution deterministically: columns, then every
// row's values (uncertain fields as '?') and its confidence.
func renderRows(rows *Rows) (string, error) {
	var b strings.Builder
	b.WriteString(strings.Join(rows.Columns(), ","))
	b.WriteByte('\n')
	vals := make([]relation.Value, len(rows.Columns()))
	dests := make([]any, len(vals))
	for i := range vals {
		dests[i] = &vals[i]
	}
	for rows.Next() {
		if err := rows.Scan(dests...); err != nil {
			return "", err
		}
		for i, v := range vals {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v.String())
		}
		fmt.Fprintf(&b, " conf=%.12g\n", rows.Conf())
	}
	return b.String(), nil
}

// TestConcurrentQueriesByteIdentical is the read path's concurrency test: N
// goroutines run a mix of plain, join and CONF() statements against one DB
// — truly in parallel, on snapshots and arenas of their own — and every
// execution must render byte-identical to the serial reference. Afterwards
// (all arenas closed) the shared store's catalog and per-relation component
// statistics must be exactly what they were before any query ran. Run under
// -race this also verifies the lock-free read path.
func TestConcurrentQueriesByteIdentical(t *testing.T) {
	s := tinyStore(t)
	db := Open(s)
	queries := []string{
		"SELECT * FROM R",
		"SELECT A, B FROM R WHERE A = 2",
		"SELECT x.A, y.D FROM R AS x, S AS y WHERE x.A = y.C",
		"SELECT CONF() FROM R WHERE A = 2",
		"SELECT POSSIBLE B FROM R WHERE B > 10",
		"SELECT CERTAIN A FROM R WHERE B = 20",
	}
	catBefore := catalogOf(s)
	statsBefore := map[string]engine.Stats{"R": s.Stats("R"), "S": s.Stats("S")}
	compsBefore := s.NumComponents()

	// Serial reference renderings.
	want := make([]string, len(queries))
	for i, q := range queries {
		rows, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want[i], err = renderRows(rows)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rows.Close()
	}

	const goroutines, iters = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(queries)
				rows, err := db.Query(queries[qi])
				if err != nil {
					errs <- fmt.Errorf("%s: %w", queries[qi], err)
					return
				}
				got, err := renderRows(rows)
				rows.Close()
				if err != nil {
					errs <- fmt.Errorf("%s: %w", queries[qi], err)
					return
				}
				if got != want[qi] {
					errs <- fmt.Errorf("%s: concurrent result diverged:\n got %q\nwant %q", queries[qi], got, want[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := catalogOf(s); got != catBefore {
		t.Fatalf("catalog changed under concurrent queries:\n pre %s\npost %s", catBefore, got)
	}
	for rel, before := range statsBefore {
		if got := s.Stats(rel); got != before {
			t.Fatalf("component stats of %s changed: %+v, want %+v", rel, got, before)
		}
	}
	if got := s.NumComponents(); got != compsBefore {
		t.Fatalf("store has %d components after queries, want %d", got, compsBefore)
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestRowsCloseIdempotent is the regression test for the result lifecycle:
// Close is idempotent, and Scan/Next/Len after Close fail cleanly instead
// of reading freed arena state.
func TestRowsCloseIdempotent(t *testing.T) {
	s := tinyStore(t)
	db := Open(s)
	for _, q := range []string{"SELECT * FROM R", "SELECT CONF() FROM R WHERE A = 2"} {
		rows, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !rows.Next() {
			t.Fatalf("%s: no rows", q)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("%s: first Close: %v", q, err)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("%s: second Close must be a no-op, got %v", q, err)
		}
		if rows.Next() {
			t.Fatalf("%s: Next after Close", q)
		}
		if n := rows.Len(); n != 0 {
			t.Fatalf("%s: Len after Close = %d, want 0", q, n)
		}
		var a, b relation.Value
		dests := []any{&a, &b}[:len(rows.Columns())]
		err = rows.Scan(dests...)
		if err == nil || !strings.Contains(err.Error(), "Close") {
			t.Fatalf("%s: Scan after Close = %v, want a closed-rows error", q, err)
		}
	}
}

// TestConcurrentQueriesWithWriter checks the read/write split end to end:
// SELECTs keep streaming correct results from their snapshots while a
// writer materializes and drops relations through the same DB.
func TestConcurrentQueriesWithWriter(t *testing.T) {
	s := tinyStore(t)
	db := Open(s)
	const q = "SELECT * FROM R"
	rows, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := db.Query(q)
				if err != nil {
					errs <- err
					return
				}
				got, err := renderRows(rows)
				rows.Close()
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("reader saw diverged result under writer:\n got %q\nwant %q", got, want)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("m%d", i)
		if _, err := db.Materialize(name, "SELECT A FROM R WHERE A = 2"); err != nil {
			t.Fatal(err)
		}
		db.DropRelation(name)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}
