package server_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"maybms/internal/engine"
	"maybms/internal/server"
	"maybms/internal/server/client"
	"maybms/internal/sql"
)

// blockOnce installs a sql.TestHookExec that blocks the first execution of
// the given statement text until release is closed, signalling entered when
// the query is held. Other statements pass through untouched.
func blockOnce(t *testing.T, text string) (entered, release chan struct{}) {
	t.Helper()
	entered = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	sql.TestHookExec = func(got string) {
		if got == text {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
	}
	t.Cleanup(func() { sql.TestHookExec = nil })
	return entered, release
}

// waitReleases polls until the process-wide arena-release counter moves past
// before, failing the test after a grace period. Cleanup runs on the server's
// session goroutine, so the test must wait rather than assert immediately.
func waitReleases(t *testing.T, before uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for engine.ArenaReleases() == before {
		if time.Now().After(deadline) {
			t.Fatal("arena never returned to the pool")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// arenaMark records the process-wide arena counters; waitHome polls until
// every arena acquired since the mark is back in the pool. A request
// canceled before it starts acquires none, so aborted requests are checked
// for balance rather than for a release having happened.
type arenaMark struct{ acquired, released uint64 }

func markArenas() arenaMark {
	return arenaMark{engine.ArenaAcquires(), engine.ArenaReleases()}
}

func (m arenaMark) waitHome(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for engine.ArenaAcquires()-m.acquired != engine.ArenaReleases()-m.released {
		if time.Now().After(deadline) {
			t.Fatal("an acquired arena never returned to the pool")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelMidQuery is the tentpole acceptance path: a CANCEL frame sent
// while an EXEC is executing aborts it with the CANCELED wire code, the
// result arena is released, and the same connection immediately serves the
// next query with byte-identical results.
func TestCancelMidQuery(t *testing.T) {
	db := sql.Open(testStore(t, 2000))
	defer db.Close()
	_, addr := startServer(t, db, server.Config{})
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const victim = "SELECT * FROM R WHERE YEARSCH = 17 AND CITIZEN = 0"
	entered, release := blockOnce(t, victim)
	mark := markArenas()
	errc := make(chan error, 1)
	go func() {
		rows, qerr := conn.Query(victim)
		if qerr == nil {
			rows.Close()
		}
		errc <- qerr
	}()
	<-entered
	if err := conn.Cancel(); err != nil {
		t.Fatalf("sending CANCEL: %v", err)
	}
	// Give the out-of-band frame time to reach the server's reader goroutine
	// before letting the query proceed into its first guard checkpoint.
	time.Sleep(200 * time.Millisecond)
	close(release)

	qerr := <-errc
	var werr *server.WireError
	if !errors.As(qerr, &werr) || werr.Code != server.ErrCanceled {
		t.Fatalf("canceled query: got %v, want wire code CANCELED", qerr)
	}
	mark.waitHome(t)

	// The connection is not poisoned: the identical statement now answers,
	// byte-for-byte what the in-process session returns.
	localRows, err := db.Query(victim)
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderAll(localRows, false)
	if err != nil {
		t.Fatal(err)
	}
	remoteRows, err := conn.Query(victim)
	if err != nil {
		t.Fatalf("query after cancel: %v", err)
	}
	got, err := renderAll(remoteRows, false)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("result after cancel differs from in-process result:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestShardedCancelOverWire is the acceptance path on a sharded store: the
// CANCEL frame crosses the wire and the session context to the shard
// fan-out of a distributable POSSIBLE plan, whose per-shard guard
// checkpoints abort with the CANCELED wire code; every shard arena returns
// to the pool, and the same connection then serves byte-identical results.
func TestShardedCancelOverWire(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-row sharded store setup is slow")
	}
	db := sql.Open(testStore(t, 20000))
	defer db.Close()
	if err := db.EnableSharding(4, 2); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, db, server.Config{})
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const victim = "SELECT POSSIBLE POWSTATE, CITIZEN FROM R WHERE YEARSCH = 17"
	entered, release := blockOnce(t, victim)
	mark := markArenas()
	errc := make(chan error, 1)
	go func() {
		rows, qerr := conn.Query(victim)
		if qerr == nil {
			rows.Close()
		}
		errc <- qerr
	}()
	<-entered
	if err := conn.Cancel(); err != nil {
		t.Fatalf("sending CANCEL: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	close(release)

	qerr := <-errc
	var werr *server.WireError
	if !errors.As(qerr, &werr) || werr.Code != server.ErrCanceled {
		t.Fatalf("canceled sharded query: got %v, want wire code CANCELED", qerr)
	}
	mark.waitHome(t)

	localRows, err := db.Query(victim)
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderAll(localRows, false)
	if err != nil {
		t.Fatal(err)
	}
	remoteRows, err := conn.Query(victim)
	if err != nil {
		t.Fatalf("query after sharded cancel: %v", err)
	}
	got, err := renderAll(remoteRows, false)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sharded result after cancel differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestDisconnectCancelsInflight: a client vanishing mid-query implicitly
// cancels it — the executing goroutine stops at the next checkpoint and its
// arena returns to the pool even though no response can be delivered.
func TestDisconnectCancelsInflight(t *testing.T) {
	db := sql.Open(testStore(t, 2000))
	defer db.Close()
	_, addr := startServer(t, db, server.Config{})
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}

	const victim = "SELECT * FROM R WHERE YEARSCH = 17"
	entered, release := blockOnce(t, victim)
	mark := markArenas()
	go func() {
		rows, qerr := conn.Query(victim)
		if qerr == nil {
			rows.Close()
		}
	}()
	<-entered
	conn.Close()
	time.Sleep(100 * time.Millisecond)
	close(release)

	// The server is still serving fresh connections.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial after disconnect-cancel: %v", err)
	}
	defer c2.Close()
	if err := c2.Ping(); err != nil {
		t.Fatalf("ping after disconnect-cancel: %v", err)
	}
	mark.waitHome(t)
}

// TestDisconnectMidFetchReleasesArena: a cursor abandoned mid-stream (client
// gone between FETCH batches) is closed by session cleanup, returning its
// arena and its budget.
func TestDisconnectMidFetchReleasesArena(t *testing.T) {
	db := sql.Open(testStore(t, 2000))
	defer db.Close()
	srv, addr := startServer(t, db, server.Config{})
	conn, err := client.Dial(addr, client.WithFetchBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := conn.Query("SELECT * FROM R WHERE YEARSCH = 17")
	if err != nil {
		t.Fatal(err)
	}
	// Pull a few rows so the cursor is genuinely mid-stream, then vanish.
	for i := 0; i < 3 && rows.Next(); i++ {
	}
	if srv.GlobalUsed() == 0 {
		t.Fatal("open cursor holds no global budget; test is not exercising the ledger")
	}
	before := engine.ArenaReleases()
	conn.Close()
	waitReleases(t, before)
	deadline := time.Now().Add(5 * time.Second)
	for srv.GlobalUsed() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("global budget still holds %d bytes after disconnect", srv.GlobalUsed())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPanicContainment: an injected panic inside query execution answers a
// typed INTERNAL error frame — and neither the poisoned connection nor any
// other stops being served; results elsewhere stay byte-identical.
func TestPanicContainment(t *testing.T) {
	db := sql.Open(testStore(t, 2000))
	defer db.Close()
	_, addr := startServer(t, db, server.Config{})

	const poisoned = "SELECT * FROM R WHERE YEARSCH = 17 AND CITIZEN = 0"
	const reference = "SELECT CONF() FROM R WHERE YEARSCH = 17"
	sql.TestHookExec = func(text string) {
		if text == poisoned {
			panic("injected engine defect")
		}
	}
	defer func() { sql.TestHookExec = nil }()

	localRows, err := db.Query(reference)
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderAll(localRows, true)
	if err != nil {
		t.Fatal(err)
	}

	connA, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	_, qerr := connA.Query(poisoned)
	var werr *server.WireError
	if !errors.As(qerr, &werr) || werr.Code != server.ErrInternal {
		t.Fatalf("poisoned query: got %v, want wire code INTERNAL", qerr)
	}

	// The panicking connection itself keeps serving...
	if err := connA.Ping(); err != nil {
		t.Fatalf("ping on the connection that hit the panic: %v", err)
	}
	// ...and a second connection gets byte-identical results.
	connB, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial after contained panic: %v", err)
	}
	defer connB.Close()
	remoteRows, err := connB.Query(reference)
	if err != nil {
		t.Fatalf("query after contained panic: %v", err)
	}
	got, err := renderAll(remoteRows, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("result after contained panic differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// dirBytes reads every file of a durable directory, keyed by name.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestMaterializeCancelAndDeadline: MATERIALIZE runs under the same
// per-request context as EXEC. A CANCEL frame and the request deadline both
// abort it with their wire codes before anything commits — catalog and
// write-ahead log byte-identical — with every arena back in the pool and the
// writer lock free, so the same connection's next MATERIALIZE commits.
func TestMaterializeCancelAndDeadline(t *testing.T) {
	cases := []struct {
		name    string
		timeout time.Duration // 0 = the server default, far beyond the test
		want    uint16
	}{
		{"cancel", 0, server.ErrCanceled},
		{"deadline", 400 * time.Millisecond, server.ErrTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := sql.InitDir(dir, testStore(t, 500))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			_, addr := startServer(t, db, server.Config{RequestTimeout: tc.timeout})
			conn, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			const victim = "SELECT * FROM R AS a, R AS b WHERE a.YEARSCH = 17"
			entered, release := blockOnce(t, victim)
			catalog, files := db.Relations(), dirBytes(t, dir)
			mark := markArenas()
			errc := make(chan error, 1)
			go func() {
				_, merr := conn.Materialize("big", victim)
				errc <- merr
			}()
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("MATERIALIZE never reached the executor")
			}
			if tc.timeout == 0 {
				if err := conn.Cancel(); err != nil {
					t.Fatalf("sending CANCEL: %v", err)
				}
				// Let the out-of-band frame reach the server's reader before
				// the statement proceeds to its first checkpoint.
				time.Sleep(200 * time.Millisecond)
			} else {
				time.Sleep(tc.timeout + 100*time.Millisecond)
			}
			close(release)

			merr := <-errc
			var werr *server.WireError
			if !errors.As(merr, &werr) || werr.Code != tc.want {
				t.Fatalf("aborted MATERIALIZE: got %v, want wire code %d", merr, tc.want)
			}
			mark.waitHome(t)
			if got := db.Relations(); !reflect.DeepEqual(got, catalog) {
				t.Fatalf("catalog changed: %v, was %v", got, catalog)
			}
			if got := dirBytes(t, dir); !reflect.DeepEqual(got, files) {
				t.Fatal("durable directory changed: an aborted MATERIALIZE reached the log")
			}

			const small = "SELECT YEARSCH, CITIZEN FROM R WHERE YEARSCH = 17"
			if _, err := conn.Materialize("small", small); err != nil {
				t.Fatalf("MATERIALIZE after the aborted one: %v", err)
			}
			if err := conn.DropRelation("small"); err != nil {
				t.Fatalf("DROP after the aborted MATERIALIZE: %v", err)
			}
		})
	}
}
