package server_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"maybms/internal/bench"
	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/server"
	"maybms/internal/server/client"
	"maybms/internal/sql"
)

// testStore builds a small chased census store (the wsdcli pipeline in
// miniature).
func testStore(t testing.TB, rows int) *engine.Store {
	t.Helper()
	p, err := bench.Prepare(rows, 0.01, 7)
	if err != nil {
		t.Fatalf("preparing store: %v", err)
	}
	if err := p.Store.ChaseEGDsOpt("R", census.Dependencies(), engine.ChaseOptions{AssumeClean: true}); err != nil {
		t.Fatalf("chase: %v", err)
	}
	return p.Store
}

// startServer boots an in-process server on a loopback port and tears it
// down with the test.
func startServer(t testing.TB, db *sql.DB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	srv := server.New(db, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

// scanner is the row surface shared by *sql.Rows and *client.Rows; renderAll
// drains either into one canonical string, so remote results can be compared
// byte-for-byte with in-process ones.
type scanner interface {
	Columns() []string
	Next() bool
	Scan(dest ...any) error
	Conf() float64
	Close() error
}

func renderAll(rows scanner, hasConf bool) (string, error) {
	var sb strings.Builder
	err := renderTo(&sb, rows, hasConf)
	return sb.String(), err
}

// renderTo is renderAll writing to w, so a result too large to hold as one
// string can be compared by digest.
func renderTo(w io.Writer, rows scanner, hasConf bool) error {
	defer rows.Close()
	bw := bufio.NewWriter(w)
	bw.WriteString(strings.Join(rows.Columns(), ","))
	bw.WriteByte('\n')
	vals := make([]relation.Value, len(rows.Columns()))
	dests := make([]any, len(vals))
	for i := range vals {
		dests[i] = &vals[i]
	}
	for rows.Next() {
		if err := rows.Scan(dests...); err != nil {
			return err
		}
		renderRow(bw, vals, hasConf, rows.Conf())
	}
	return bw.Flush()
}

// renderRow is one line of renderTo: the values, then the confidence.
func renderRow(w *bufio.Writer, vals []relation.Value, hasConf bool, conf float64) {
	for i, v := range vals {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(v.String())
	}
	if hasConf {
		fmt.Fprintf(w, " @%.12g", conf)
	}
	w.WriteByte('\n')
}

// The e2e queries cover the three result shapes: a plain template result
// (read in place from the snapshot, streamed lazily), an across-world
// CONF() answer, and a POSSIBLE decode; and a plain result whose projection
// drops an uncertain condition field, so some rows' first column is a
// carrier placeholder the page patches in.
var e2eQueries = []struct {
	text    string
	hasConf bool
}{
	{"SELECT * FROM R WHERE YEARSCH = 17 AND CITIZEN = 0", false},
	{"SELECT CONF() FROM R WHERE YEARSCH = 17", true},
	{"SELECT POSSIBLE YEARSCH, CITIZEN FROM R WHERE YEARSCH = 17", false},
	{"SELECT POWSTATE FROM R WHERE CITIZEN = 0", false},
}

// localRenders runs every e2e query in-process: the reference renders.
func localRenders(t *testing.T, db *sql.DB) []string {
	t.Helper()
	want := make([]string, len(e2eQueries))
	for i, q := range e2eQueries {
		rows, err := db.Query(q.text)
		if err != nil {
			t.Fatalf("local %s: %v", q.text, err)
		}
		want[i], err = renderAll(rows, q.hasConf)
		if err != nil {
			t.Fatalf("local render %s: %v", q.text, err)
		}
	}
	return want
}

// TestConcurrentClientsByteIdentical runs 9 concurrent client connections
// and checks every remote result is byte-identical to the same statement run
// in-process — across plain (with '?' fields), CONF() and POSSIBLE results,
// across FETCH batches of 1, 3 and the default, and across 1 and 3 shards
// (a plain page ends early at each shard segment's boundary).
func TestConcurrentClientsByteIdentical(t *testing.T) {
	db := sql.Open(testStore(t, 2000))
	defer db.Close()
	_, addr := startServer(t, db, server.Config{})

	for _, shards := range []int{1, 3} {
		if shards > 1 {
			if err := db.EnableSharding(shards, shards); err != nil {
				t.Fatal(err)
			}
		}
		want := localRenders(t, db)
		if !strings.Contains(want[0], "?") {
			t.Fatalf("plain reference carries no '?' field:\n%s", want[0])
		}
		const conns = 9
		var wg sync.WaitGroup
		errc := make(chan error, conns)
		for w := 0; w < conns; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Workers cycle through the default batch and tiny ones, so
				// results cross the wire in one page per segment or in many.
				opts := []client.Option{}
				if batch := []int{0, 3, 1}[w%3]; batch > 0 {
					opts = append(opts, client.WithFetchBatch(batch))
				}
				c, err := client.Dial(addr, opts...)
				if err != nil {
					errc <- fmt.Errorf("worker %d: dial: %w", w, err)
					return
				}
				defer c.Close()
				for rep := 0; rep < 3; rep++ {
					for i, q := range e2eQueries {
						rows, err := c.Query(q.text)
						if err != nil {
							errc <- fmt.Errorf("worker %d: %s: %w", w, q.text, err)
							return
						}
						got, err := renderAll(rows, q.hasConf)
						if err != nil {
							errc <- fmt.Errorf("worker %d: render %s: %w", w, q.text, err)
							return
						}
						if got != want[i] {
							errc <- fmt.Errorf("%d shards, worker %d: %s: remote result differs from in-process:\nremote:\n%s\nlocal:\n%s",
								shards, w, q.text, got, want[i])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
	}
}

// TestFetchBatchBoundedByFrameBytes: with the server's row cap lifted far
// past what fits in MaxFrame, a result larger than one frame must still
// drain completely — the server caps each page by bytes too — and match the
// in-process result.
func TestFetchBatchBoundedByFrameBytes(t *testing.T) {
	const rows, ncols = 600_000, 8
	if rows*ncols*4 <= server.MaxFrame {
		t.Fatal("the result fits in one frame; grow it")
	}
	attrs := make([]string, ncols)
	cols := make([][]int32, ncols)
	for c := range cols {
		attrs[c] = fmt.Sprintf("A%d", c)
		cols[c] = make([]int32, rows)
		for i := range cols[c] {
			cols[c][i] = int32((i*(c+7) + c) % 100_003)
		}
	}
	s := engine.NewStore()
	if _, err := s.AddRelation("R", attrs, cols); err != nil {
		t.Fatal(err)
	}
	db := sql.Open(s)
	defer db.Close()
	_, addr := startServer(t, db, server.Config{FetchBatch: 1 << 20})

	const text = "SELECT * FROM R"
	digest := func(render func(w io.Writer) error) string {
		h := sha256.New()
		if err := render(h); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	want := digest(func(w io.Writer) error {
		local, err := db.Query(text)
		if err != nil {
			return err
		}
		return renderTo(w, local, false)
	})
	c, err := client.Dial(addr, client.WithFetchBatch(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := digest(func(w io.Writer) error {
		remote, err := c.Query(text)
		if err != nil {
			return err
		}
		if err := renderTo(w, remote, false); err != nil {
			return err
		}
		return remote.Err()
	})
	if got != want {
		t.Fatalf("remote result digest %s, in-process %s", got, want)
	}
}

// TestPreparedStatementRemote exercises prepare-once/bind-many over the wire.
func TestPreparedStatementRemote(t *testing.T) {
	db := sql.Open(testStore(t, 1000))
	defer db.Close()
	_, addr := startServer(t, db, server.Config{})

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	st, err := c.Prepare("SELECT * FROM R WHERE YEARSCH = ? AND CITIZEN = 0")
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if st.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", st.NumParams())
	}
	local, err := db.Prepare("SELECT * FROM R WHERE YEARSCH = ? AND CITIZEN = 0")
	if err != nil {
		t.Fatalf("local prepare: %v", err)
	}
	for _, year := range []int{10, 13, 17} {
		lrows, err := local.Query(year)
		if err != nil {
			t.Fatalf("local query(%d): %v", year, err)
		}
		want, err := renderAll(lrows, false)
		if err != nil {
			t.Fatal(err)
		}
		rrows, err := st.Query(year)
		if err != nil {
			t.Fatalf("remote query(%d): %v", year, err)
		}
		got, err := renderAll(rrows, false)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("year %d: remote differs from local\nremote:\n%s\nlocal:\n%s", year, got, want)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("stmt close: %v", err)
	}
	if _, err := st.Query(17); err == nil {
		t.Fatal("Query on a closed Stmt succeeded")
	}
}

// TestRemoteCatalogExplainMaterialize covers the management opcodes against
// their in-process equivalents.
func TestRemoteCatalogExplainMaterialize(t *testing.T) {
	db := sql.Open(testStore(t, 500))
	defer db.Close()
	_, addr := startServer(t, db, server.Config{})

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	rels, err := c.Catalog()
	if err != nil {
		t.Fatalf("catalog: %v", err)
	}
	if len(rels) != 1 || rels[0].Name != "R" {
		t.Fatalf("catalog = %+v, want one relation R", rels)
	}
	if got, want := len(rels[0].Attrs), len(census.AttrNames()); got != want {
		t.Fatalf("catalog lists %d attributes, want %d", got, want)
	}
	if rels[0].Stats != db.Stats("R") {
		t.Fatalf("catalog stats %+v != local %+v", rels[0].Stats, db.Stats("R"))
	}

	text := "SELECT CONF() FROM R WHERE YEARSCH = 17"
	remoteExpl, err := c.Explain("EXPLAIN " + text)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	localExpl, err := db.Explain("EXPLAIN " + text)
	if err != nil {
		t.Fatalf("local explain: %v", err)
	}
	if remoteExpl != localExpl {
		t.Fatalf("remote EXPLAIN differs:\n%s\nvs local:\n%s", remoteExpl, localExpl)
	}

	st, err := c.Materialize("q1", "SELECT * FROM R WHERE YEARSCH = 17 AND CITIZEN = 0")
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if st.RSize == 0 {
		t.Fatalf("materialized stats %+v, want nonzero |R|", st)
	}
	rels, err = c.Catalog()
	if err != nil {
		t.Fatalf("catalog after materialize: %v", err)
	}
	if len(rels) != 2 {
		t.Fatalf("catalog lists %d relations after materialize, want 2", len(rels))
	}
	if err := c.DropRelation("q1"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	var werr *server.WireError
	if err := c.DropRelation("q1"); !errors.As(err, &werr) || werr.Code != server.ErrSQL {
		t.Fatalf("second drop: got %v, want ErrSQL wire error", err)
	}
}

// TestCatalogUnderCommits pins a CATALOG reply to one committed state: while
// a writer cycles MATERIALIZE q / DROP q, every relation a reply lists must
// carry its full schema and non-zero statistics. A reply assembled from
// several reads lists a q that a DROP removed mid-reply with no attributes
// and zero statistics.
func TestCatalogUnderCommits(t *testing.T) {
	db := sql.Open(testStore(t, 2000))
	defer db.Close()
	_, addr := startServer(t, db, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	attrs := len(census.AttrNames())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Materialize("q", "SELECT * FROM R WHERE YEARSCH = 17"); err != nil {
				t.Errorf("materialize: %v", err)
				return
			}
			if err := db.DropRelation("q"); err != nil {
				t.Errorf("drop: %v", err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	listedQ := 0
	for i := 0; i < 500; i++ {
		rels, err := c.Catalog()
		if err != nil {
			t.Fatalf("catalog %d: %v", i, err)
		}
		for _, ri := range rels {
			if ri.Name != "R" && ri.Name != "q" {
				t.Fatalf("catalog %d lists unknown relation %q", i, ri.Name)
			}
			if len(ri.Attrs) != attrs || ri.Stats.RSize == 0 {
				t.Fatalf("catalog %d lists %s with %d attributes and %+v, want %d attributes and non-zero statistics",
					i, ri.Name, len(ri.Attrs), ri.Stats, attrs)
			}
			if ri.Name == "q" {
				listedQ++
			}
		}
	}
	t.Logf("%d of 500 replies listed q", listedQ)
}

// TestHeldCursorSurvivesWrites: a plain result is read at FETCH time from
// its snapshot's columns, so it leans on the store's copy-on-write. A
// cursor over SELECT * … WHERE, opened and read one row into, is held
// across each kind of commit in turn — SET UNCERTAIN on a certain cell of a
// selected row, a chase that rewrites the relation's components, RENAME and
// DROP — and must then drain to the answer of just before the commit: in
// process and over the wire a row per FETCH, on 1 and 2 shards.
func TestHeldCursorSurvivesWrites(t *testing.T) {
	// Every alternative SET UNCERTAIN adds is 41; the chase removes it again.
	deps := []engine.EGD{{
		Premise:    []engine.Atom{{Attr: "A", Theta: relation.EQ, C: 41}},
		Conclusion: engine.Atom{Attr: "B", Theta: relation.LT, C: 0},
	}}
	for _, shards := range []int{1, 2} {
		for _, wire := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d,wire=%v", shards, wire), func(t *testing.T) {
				const rows = 300
				cols := [][]int32{make([]int32, rows), make([]int32, rows), make([]int32, rows)}
				for c, col := range cols {
					for i := range col {
						col[i] = int32((i*(7+c) + 3*c) % 30)
					}
				}
				s := engine.NewStore()
				if _, err := s.AddRelation("R", []string{"A", "B", "C"}, cols); err != nil {
					t.Fatal(err)
				}
				for i := 5; i < rows; i += 11 {
					if err := s.SetUncertain("R", i, "C", []int32{1, 2}, nil); err != nil {
						t.Fatal(err)
					}
				}
				db := sql.Open(s)
				defer db.Close()
				if shards > 1 {
					if err := db.EnableSharding(shards, shards); err != nil {
						t.Fatal(err)
					}
				}
				open := func(text string) (scanner, error) { return db.Query(text) }
				if wire {
					_, addr := startServer(t, db, server.Config{})
					c, err := client.Dial(addr, client.WithFetchBatch(1))
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					open = func(text string) (scanner, error) { return c.Query(text) }
				}
				rel := "R"
				steps := []struct {
					name   string
					commit func() error
				}{
					// Row 200 is selected (B = 13), certain and not yet read.
					{"SET UNCERTAIN", func() error { return db.SetUncertain(rel, 200, "A", []int32{41, 3}, nil) }},
					{"CHASE", func() error { return db.Chase(rel, deps, engine.ChaseOptions{}) }},
					{"RENAME", func() error { return db.RenameRelation(rel, "Q") }},
					{"DROP", func() error { return db.DropRelation(rel) }},
				}
				for _, st := range steps {
					text := "SELECT * FROM " + rel + " WHERE B < 15"
					ref, err := db.Query(text)
					if err != nil {
						t.Fatal(err)
					}
					want, err := renderAll(ref, false)
					if err != nil {
						t.Fatal(err)
					}
					held, err := open(text)
					if err != nil {
						t.Fatal(err)
					}
					got, err := renderAround(held, st.commit)
					if err != nil {
						t.Fatalf("%s: %v", st.name, err)
					}
					if got != want {
						t.Fatalf("a cursor held across %s drained\n%s\nwant the pre-commit\n%s", st.name, got, want)
					}
					if st.name == "RENAME" {
						rel = "Q"
					}
				}
			})
		}
	}
}

// renderAround is renderAll committing between the first row and the rest.
func renderAround(rows scanner, commit func() error) (string, error) {
	defer rows.Close()
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	bw.WriteString(strings.Join(rows.Columns(), ","))
	bw.WriteByte('\n')
	vals := make([]relation.Value, len(rows.Columns()))
	dests := make([]any, len(vals))
	for i := range vals {
		dests[i] = &vals[i]
	}
	for n := 0; rows.Next(); n++ {
		if err := rows.Scan(dests...); err != nil {
			return "", err
		}
		renderRow(bw, vals, false, 0)
		if n == 0 {
			if err := commit(); err != nil {
				return "", err
			}
		}
	}
	err := bw.Flush()
	return sb.String(), err
}

// bigResult is the budget tests' large result: every answer of a CONF()
// over the whole relation, held as an answer list. A plain SELECT * FROM R
// would not do — it reads the snapshot's columns in place and retains
// almost nothing.
const bigResult = "SELECT CONF() FROM R"

// TestSessionBudgetReject checks the per-session budget: a result larger
// than the budget answers a typed ErrMemBudget frame, the rejected result's
// arena is released, and the session keeps serving smaller queries.
func TestSessionBudgetReject(t *testing.T) {
	db := sql.Open(testStore(t, 2000))
	defer db.Close()

	// Measure both results in-process and put the session budget between
	// them: the big one must be rejected, the small one admitted.
	mem := func(text string) int64 {
		rows, err := db.Query(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		defer rows.Close()
		return rows.MemUsage()
	}
	const small = "SELECT CONF() FROM R WHERE YEARSCH = 17 AND CITIZEN = 0"
	big, smallNeed := mem(bigResult), mem(small)
	if smallNeed >= big {
		t.Fatalf("probe: small result (%d bytes) not smaller than big (%d)", smallNeed, big)
	}
	srv, addr := startServer(t, db, server.Config{SessionBudget: smallNeed + (big-smallNeed)/2})

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	releases := engine.ArenaReleases()
	_, err = c.Query(bigResult)
	var werr *server.WireError
	if !errors.As(err, &werr) || werr.Code != server.ErrMemBudget {
		t.Fatalf("oversized query: got %v, want ErrMemBudget wire error", err)
	}
	if !strings.Contains(werr.Msg, "budget") {
		t.Fatalf("error message %q does not mention the budget", werr.Msg)
	}
	if engine.ArenaReleases() == releases {
		t.Fatal("rejected result did not release its arena")
	}
	if used := srv.GlobalUsed(); used != 0 {
		t.Fatalf("global ledger holds %d bytes after a rejected result", used)
	}

	// The session survives the rejection: the small query still works.
	rows, err := c.Query(small)
	if err != nil {
		t.Fatalf("small query after rejection: %v", err)
	}
	if _, err := renderAll(rows, true); err != nil {
		t.Fatal(err)
	}
}

// TestGlobalBudgetQueue checks the server-wide ledger: a result that does
// not fit queues until another session releases memory, and times out with a
// typed ErrTimeout frame when nothing frees up in time.
func TestGlobalBudgetQueue(t *testing.T) {
	db := sql.Open(testStore(t, 2000))
	defer db.Close()

	// Measure the footprint of the big query once, in-process.
	probe, err := db.Query(bigResult)
	if err != nil {
		t.Fatal(err)
	}
	need := probe.MemUsage()
	probe.Close()
	if need <= 0 {
		t.Fatalf("MemUsage = %d, want > 0", need)
	}

	// Global budget fits one big result but not two.
	srv, addr := startServer(t, db, server.Config{
		GlobalBudget:   need + need/2,
		RequestTimeout: 5 * time.Second,
	})

	holder, err := client.Dial(addr, client.WithFetchBatch(1))
	if err != nil {
		t.Fatalf("dial holder: %v", err)
	}
	defer holder.Close()
	// While the holder's query runs and its cursor opens, the ledger is
	// sampled continuously. The mid-flight reservation becomes the cursor's
	// charge, so the only legal decrease is the release of a reservation's
	// excess over the result — landing on need, never below it, where the
	// finished result would be unaccounted and its bytes up for grabs.
	dipped := make(chan int64, 1)
	stop := make(chan struct{})
	go func() {
		var prev int64
		for {
			used := srv.GlobalUsed()
			if used < prev && used < need {
				dipped <- used
				return
			}
			prev = used
			select {
			case <-stop:
				dipped <- -1
				return
			default:
			}
		}
	}()
	held, err := holder.Query(bigResult)
	if err != nil {
		t.Fatalf("holder query: %v", err)
	}
	if !held.Next() { // fetch one row; the cursor (and its memory) stays open
		t.Fatal("held cursor has no rows")
	}
	if used := srv.GlobalUsed(); used != need {
		t.Fatalf("global ledger holds %d bytes, want %d", used, need)
	}
	close(stop)
	if low := <-dipped; low >= 0 {
		t.Fatalf("global ledger dropped to %d bytes between query end and cursor open (the result needs %d)", low, need)
	}

	waiter, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial waiter: %v", err)
	}
	defer waiter.Close()
	type res struct {
		rows *client.Rows
		err  error
	}
	done := make(chan res, 1)
	go func() {
		rows, err := waiter.Query(bigResult)
		done <- res{rows, err}
	}()

	// The waiter must be queued, not answered.
	select {
	case r := <-done:
		t.Fatalf("second big query was not queued: rows=%v err=%v", r.rows, r.err)
	case <-time.After(300 * time.Millisecond):
	}

	// Releasing the held cursor admits the queued request.
	if err := held.Close(); err != nil {
		t.Fatalf("closing held cursor: %v", err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("queued query failed after memory freed: %v", r.err)
		}
		r.rows.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("queued query still blocked after the held cursor closed")
	}
}

// TestGlobalBudgetTimeout is the starvation side: nothing frees memory, so
// the queued request must come back as ErrTimeout within its deadline.
func TestGlobalBudgetTimeout(t *testing.T) {
	db := sql.Open(testStore(t, 2000))
	defer db.Close()
	probe, err := db.Query(bigResult)
	if err != nil {
		t.Fatal(err)
	}
	need := probe.MemUsage()
	probe.Close()

	_, addr := startServer(t, db, server.Config{
		GlobalBudget:   need + need/2,
		RequestTimeout: 400 * time.Millisecond,
	})

	holder, err := client.Dial(addr, client.WithFetchBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	held, err := holder.Query(bigResult)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	held.Next()

	waiter, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	start := time.Now()
	_, err = waiter.Query(bigResult)
	var werr *server.WireError
	if !errors.As(err, &werr) || werr.Code != server.ErrTimeout {
		t.Fatalf("starved query: got %v, want ErrTimeout wire error", err)
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond || elapsed > 3*time.Second {
		t.Fatalf("timeout after %v, want roughly the 400ms request deadline", elapsed)
	}

	// An oversized single result (larger than the whole global budget) is
	// rejected immediately as ErrMemBudget — queueing could never admit it.
	_, addr2 := startServer(t, db, server.Config{GlobalBudget: need / 2, RequestTimeout: 5 * time.Second})
	c2, err := client.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	start = time.Now()
	_, err = c2.Query(bigResult)
	if !errors.As(err, &werr) || werr.Code != server.ErrMemBudget {
		t.Fatalf("over-global-budget query: got %v, want ErrMemBudget", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("over-global-budget rejection queued instead of failing fast")
	}
}

// TestCloseMidFetchReleasesArena is the cursor-lifecycle regression test:
// closing a cursor halfway through its FETCH stream must return the pooled
// result arena and the budgeted bytes at once.
func TestCloseMidFetchReleasesArena(t *testing.T) {
	db := sql.Open(testStore(t, 2000))
	defer db.Close()
	srv, addr := startServer(t, db, server.Config{})

	c, err := client.Dial(addr, client.WithFetchBatch(5))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	rows, err := c.Query("SELECT * FROM R WHERE CITIZEN = 0")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if rows.Len() <= 10 {
		t.Fatalf("result has %d rows; need more than two 5-row batches", rows.Len())
	}
	for i := 0; i < 7; i++ { // partway into the second batch
		if !rows.Next() {
			t.Fatalf("rows ended at %d of %d", i, rows.Len())
		}
	}
	if used := srv.GlobalUsed(); used == 0 {
		t.Fatal("open cursor holds no budgeted bytes")
	}
	releases := engine.ArenaReleases()
	if err := rows.Close(); err != nil {
		t.Fatalf("close mid-fetch: %v", err)
	}
	if engine.ArenaReleases() == releases {
		t.Fatal("closing the cursor mid-fetch did not release the pooled arena")
	}
	if used := srv.GlobalUsed(); used != 0 {
		t.Fatalf("global ledger holds %d bytes after the cursor closed", used)
	}

	// Exhausting a cursor releases implicitly (the server auto-closes): the
	// explicit CLOSE_CURSOR after that must answer ErrUnknownCursor, which
	// the client never sends — Close is a no-op on a drained cursor.
	rows, err = c.Query("SELECT * FROM R WHERE CITIZEN = 0")
	if err != nil {
		t.Fatal(err)
	}
	releases = engine.ArenaReleases()
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if engine.ArenaReleases() == releases {
		t.Fatal("exhausting the cursor did not release the arena")
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close after exhaustion: %v", err)
	}
	if used := srv.GlobalUsed(); used != 0 {
		t.Fatalf("global ledger holds %d bytes after exhaustion", used)
	}
}

// TestGracefulDrain checks Shutdown: idle sessions get a shutting-down frame
// and disconnect, the listener refuses new connections with the same typed
// error, and Shutdown returns once every arena is back.
func TestGracefulDrain(t *testing.T) {
	db := sql.Open(testStore(t, 500))
	defer db.Close()
	srv, addr := startServer(t, db, server.Config{})

	idle, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer idle.Close()
	if err := idle.Ping(); err != nil {
		t.Fatalf("ping before drain: %v", err)
	}

	// Hold an open cursor through the drain: Shutdown must still release it.
	cursorConn, err := client.Dial(addr, client.WithFetchBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cursorConn.Close()
	held, err := cursorConn.Query("SELECT * FROM R WHERE CITIZEN = 0")
	if err != nil {
		t.Fatal(err)
	}
	held.Next()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if used := srv.GlobalUsed(); used != 0 {
		t.Fatalf("global ledger holds %d bytes after drain", used)
	}

	// The drained session answered ErrShutdown (or the connection is gone).
	err = idle.Ping()
	if err == nil {
		t.Fatal("ping succeeded after drain")
	}
	var werr *server.WireError
	if errors.As(err, &werr) && werr.Code != server.ErrShutdown {
		t.Fatalf("post-drain ping: wire error %v, want ErrShutdown", werr)
	}

	// New connections are refused.
	if c, err := client.Dial(addr); err == nil {
		c.Close()
		t.Fatal("dial succeeded after shutdown")
	}
}
