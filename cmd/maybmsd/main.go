// Command maybmsd serves a world-set-decomposition store over TCP: the
// probabilistic database as a service. It builds (or ingests) a store, wraps
// it in the internal/sql session API, and speaks the maybmsd wire protocol
// (docs/wire-protocol.md) to any number of concurrent clients — each
// connection its own session with prepared statements, cursors and a pooled
// result arena, all reading the same store through O(1) snapshots.
//
// Usage:
//
//	maybmsd [-listen 127.0.0.1:5439] [-rows 100000] [-density 0.0001] [-seed 42]
//	maybmsd -store data.csv [-rel R] [-skip-chase]
//	maybmsd -data ./dbdir [...]
//	maybmsd -debug-addr 127.0.0.1:6060 [...]
//
// Without -store the server generates the Section 9 census relation R (with
// noise and the Figure 25 cleaning chase, as wsdcli does). With -store it
// bulk-ingests a CSV file (sql.DB.IngestCSV): the header row names the
// attributes, fields are non-negative integers, and a field of the form
// "a|b|c" becomes an or-set (a local world per alternative, uniform
// probabilities). When the CSV header matches the census schema the
// cleaning chase runs after ingest unless -skip-chase is given.
//
// With -data the store is durable (docs/snapshot-format.md): a directory
// holding a snapshot is restored — newest snapshot plus write-ahead-log
// replay, zero CSV re-ingest — and -store/-rows are ignored; a fresh
// directory is initialized from the generated store and every commit is
// logged from then on. A fresh directory combined with
// -store boots durably without writing a snapshot first: the ingest is one
// LOAD CSV log record (file checksum + row count) and the chase is logged
// behind it, so a kill -9 before the first checkpoint replays the boot
// exactly.
//
// With -shards N the store is partitioned into N sub-stores by component
// connectivity and distributable queries run morsel-parallel across them
// (docs/sharding.md); -shards 0 (the default) decides from the store size
// and the host's core count. The confidence-fold worker pool defaults to
// GOMAXPROCS, clamped; both are logged at boot, along with one fingerprint
// line per shard (the partition is deterministic, so two boots of the same
// directory log identical fingerprints).
//
// With -debug-addr HOST:PORT the server also serves Go's profiling
// handlers (net/http/pprof: /debug/pprof/, including the CPU profile at
// /debug/pprof/profile?seconds=N) on that address, on a mux of their own.
// It is off by default, and the host must be a loopback address: the
// handlers expose the process's memory and stacks, so a non-loopback host
// is refused at boot.
//
// SIGTERM and SIGINT drain gracefully: the listener closes, in-flight
// requests finish, idle clients get a shutting-down error frame, and the
// process exits once every session has released its arenas (or after
// -drain-timeout, forcibly). A durable store is checkpointed after a clean
// drain, compacting the log into a fresh snapshot; a killed process simply
// replays its log on the next start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/server"
	"maybms/internal/sql"
	"maybms/internal/storage"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:5439", "address to listen on")
	rows := flag.Int("rows", 100000, "generated census relation size (ignored with -store)")
	density := flag.Float64("density", 0.0001, "placeholder density of the generated relation")
	seed := flag.Int64("seed", 42, "random seed of the generated relation")
	store := flag.String("store", "", "ingest this CSV file instead of generating census data")
	data := flag.String("data", "", "durable store directory: restore (snapshot + WAL replay) or initialize, log commits, checkpoint on drain")
	rel := flag.String("rel", "R", "relation name for the ingested CSV")
	skipChase := flag.Bool("skip-chase", false, "skip the data-cleaning chase")
	shards := flag.Int("shards", 0, "shard count for morsel-parallel execution (0 = auto from store size and cores, 1 = off)")
	maxConns := flag.Int("max-conns", 256, "concurrent connection limit")
	sessionBudget := flag.Int64("session-budget", 256<<20, "per-session result-memory budget in bytes")
	globalBudget := flag.Int64("global-budget", 1<<30, "server-wide result-memory budget in bytes")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline (also bounds budget queueing)")
	fetchBatch := flag.Int("fetch-batch", 4096, "maximum tuples per FETCH response frame")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "grace period for shutdown before connections are cut")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this loopback address (off when empty)")
	flag.Parse()

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("maybmsd: ")

	if *debugAddr != "" {
		ln, err := listenDebug(*debugAddr)
		if err != nil {
			log.SetFlags(0)
			log.SetPrefix("")
			log.Fatal(err)
		}
		log.Printf("profiling on http://%s/debug/pprof/", ln.Addr())
		go func() { log.Printf("debug listener stopped: %v", http.Serve(ln, debugMux())) }()
	}

	db, err := openDB(*data, *store, *rel, *rows, *density, *seed, *skipChase)
	if err != nil {
		log.SetFlags(0)
		log.SetPrefix("") // the error already carries the maybmsd: prefix
		log.Fatal(err)    // exit code 1 with the actionable message
	}
	defer db.Close()
	if err := db.EnableSharding(*shards, 0); err != nil {
		log.Fatalf("enabling sharding (-shards %d): %v", *shards, err)
	}
	if n, workers := db.Sharding(); n > 1 {
		log.Printf("sharding: %d shards, %d fan-out workers (GOMAXPROCS %d, clamped to [1,%d])",
			n, workers, runtime.GOMAXPROCS(0), engine.MaxConfWorkers)
		fps, err := db.ShardFingerprints()
		if err != nil {
			log.Fatalf("fingerprinting the shard set: %v", err)
		}
		for i, fp := range fps {
			log.Printf("shard %d: fingerprint %08x", i, fp)
		}
	} else {
		log.Printf("sharding off (single authority store; -shards N forces it on)")
	}
	srv := server.New(db, server.Config{
		MaxConns:       *maxConns,
		SessionBudget:  *sessionBudget,
		GlobalBudget:   *globalBudget,
		RequestTimeout: *timeout,
		FetchBatch:     *fetchBatch,
		Logf:           log.Printf,
	})
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("listening on %s: %v", *listen, err)
	}
	log.Printf("serving on %s (max-conns=%d session-budget=%d global-budget=%d)",
		addr, *maxConns, *sessionBudget, *globalBudget)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	log.Printf("%s: draining (in-flight requests finish, new work is refused)", sig)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain timed out, connections cut: %v", err)
		os.Exit(1)
	}
	log.Printf("drained cleanly")
	if db.DataDir() != "" {
		if err := db.Checkpoint(); err != nil {
			log.Printf("checkpoint failed: %v (the WAL still holds every commit; the next start replays it)", err)
			os.Exit(1)
		}
		log.Printf("checkpointed %s (log compacted into a fresh snapshot)", db.DataDir())
	}
}

// listenDebug opens the -debug-addr listener, refusing any host that is
// not a loopback address.
func listenDebug(addr string) (net.Listener, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("maybmsd: -debug-addr %q: %v (give HOST:PORT, e.g. 127.0.0.1:6060)", addr, err)
	}
	if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		return nil, fmt.Errorf("maybmsd: -debug-addr %q: host is not a loopback address (the profiler exposes process memory; use 127.0.0.1 or ::1)", addr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("maybmsd: -debug-addr %q: %w", addr, err)
	}
	return ln, nil
}

// debugMux serves the net/http/pprof handlers, and nothing else, on a mux
// of its own rather than http.DefaultServeMux.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// openDB builds the served session. A -data directory that already holds a
// store is restored and nothing else is consulted; otherwise the store comes
// from the -store CSV or the census generator, durable when -data is given.
func openDB(dataDir, storePath, rel string, rows int, density float64, seed int64, skipChase bool) (*sql.DB, error) {
	if dataDir != "" {
		db, replayed, err := sql.Restore(dataDir)
		if err == nil {
			if snaps, _ := filepath.Glob(filepath.Join(dataDir, "snapshot-*.mybs")); len(snaps) > 0 {
				log.Printf("restored %s: snapshot + %d WAL records, zero re-ingest", dataDir, replayed)
			} else {
				log.Printf("restored %s: WAL-only boot, %d records replayed (no snapshot yet; the drain checkpoint writes one)", dataDir, replayed)
			}
			for _, name := range db.Relations() {
				logStats(db, name)
			}
			return db, nil
		}
		if !errors.Is(err, storage.ErrNoSnapshot) {
			return nil, fmt.Errorf("maybmsd: restoring -data %s: %w (move the damaged directory aside to re-initialize)", dataDir, err)
		}
	}
	if storePath != "" {
		return bootCSV(dataDir, storePath, rel, skipChase)
	}
	st, err := censusStore(rows, density, seed, skipChase)
	if err != nil {
		return nil, err
	}
	if dataDir == "" {
		return sql.Open(st), nil
	}
	db, err := sql.InitDir(dataDir, st)
	if err != nil {
		return nil, fmt.Errorf("maybmsd: initializing -data %s: %w", dataDir, err)
	}
	log.Printf("initialized %s: first snapshot written, commits logged from here on", dataDir)
	return db, nil
}

// bootCSV serves a CSV file: header row = attribute names, integer fields =
// certain values, "a|b|c" fields = or-sets; the census cleaning chase runs
// when the header matches the census schema. The ingest and the chase are
// two commits on the session, so the in-memory boot (a DB with no directory)
// and the durable one are the same sequence: with a fresh -data directory
// they are logged as WAL records — no snapshot is written first, and the
// boot survives a kill -9 before any checkpoint.
func bootCSV(dataDir, storePath, rel string, skipChase bool) (*sql.DB, error) {
	db := sql.Open(engine.NewStore())
	if dataDir != "" {
		var err error
		if db, err = sql.CreateDir(dataDir); err != nil {
			return nil, fmt.Errorf("maybmsd: creating -data %s: %w", dataDir, err)
		}
	}
	info, err := db.IngestCSV(storePath, rel)
	if err != nil {
		db.Close()
		var pe *fs.PathError
		if errors.As(err, &pe) {
			return nil, fmt.Errorf("maybmsd: opening -store file: %v (give the path of a CSV whose header row names the attributes)", pe)
		}
		return nil, fmt.Errorf("maybmsd: %v", err)
	}
	log.Printf("ingested %s: %d tuples × %d attributes, %d or-sets", storePath, info.Rows, info.Attrs, info.OrSets)
	if !skipChase && isCensusSchema(db.Schema(rel)) {
		start := time.Now()
		if err := db.Chase(rel, census.Dependencies(), engine.ChaseOptions{AssumeClean: true}); err != nil {
			db.Close()
			return nil, fmt.Errorf("maybmsd: cleaning chase over %s failed: %w (the data contradicts the census dependencies; rerun with -skip-chase to serve it as-is)", rel, err)
		}
		log.Printf("census schema detected: chased %d dependencies in %s",
			len(census.Dependencies()), time.Since(start).Round(time.Millisecond))
	}
	logStats(db, rel)
	if dataDir != "" {
		log.Printf("created %s: commits logged from the first record, no snapshot yet (the ingest is one LOAD CSV record: keep %s until the first checkpoint)", dataDir, storePath)
	}
	return db, nil
}

// censusStore generates the Section 9 census relation R with noise and the
// Figure 25 cleaning chase (the wsdcli pipeline).
func censusStore(rows int, density float64, seed int64, skipChase bool) (*engine.Store, error) {
	log.Printf("generating census relation: %d tuples × %d attributes, density %.3f%%",
		rows, len(census.Attrs), density*100)
	st, err := census.NewStore("R", rows, seed)
	if err == nil {
		_, err = census.AddNoise(st, "R", density, seed+1)
	}
	if err != nil {
		return nil, fmt.Errorf("maybmsd: generating census data: %w", err)
	}
	if !skipChase {
		start := time.Now()
		if err := st.ChaseEGDsOpt("R", census.Dependencies(), engine.ChaseOptions{AssumeClean: true}); err != nil {
			return nil, fmt.Errorf("maybmsd: cleaning chase failed: %w (rerun with -skip-chase to serve the uncleaned data)", err)
		}
		log.Printf("chased %d dependencies in %s", len(census.Dependencies()), time.Since(start).Round(time.Millisecond))
	}
	logStats(st, "R")
	return st, nil
}

// isCensusSchema reports whether attrs is exactly the census schema, in
// order — the condition for running the Figure 25 cleaning dependencies.
func isCensusSchema(attrs []string) bool {
	want := census.AttrNames()
	if len(attrs) != len(want) {
		return false
	}
	for i := range attrs {
		if attrs[i] != want[i] {
			return false
		}
	}
	return true
}

func logStats(st interface{ Stats(string) engine.Stats }, rel string) {
	s := st.Stats(rel)
	log.Printf("%s: #comp=%d #comp>1=%d |C|=%d |R|=%d", rel, s.NumComp, s.NumCompGT1, s.CSize, s.RSize)
}
