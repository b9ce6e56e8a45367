package main

import (
	"fmt"
	"os"

	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/sql"
	"maybms/internal/storage"
)

// openStore builds the store maybmsd -store builds from the same file: bulk
// CSV ingest, then the census cleaning chase.
func openStore(csvPath string) (*engine.Store, error) {
	f, err := os.Open(csvPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, _, err := storage.LoadCSV(f, csvPath, "R")
	if err != nil {
		return nil, err
	}
	if err := st.ChaseEGDsOpt("R", census.Dependencies(), engine.ChaseOptions{AssumeClean: true}); err != nil {
		return nil, fmt.Errorf("cleaning chase: %w", err)
	}
	return st, nil
}

// expected holds the reference answers of a workload, computed in process on
// an unsharded session over the same CSV.
type expected struct {
	// stmts maps statement text to the fingerprint of its result.
	stmts map[string]fingerprint
	// r watches the representation statistics of R, which q5_session checks
	// after every cycle; it starts at the reference's.
	r *relWatch
	// q2Stats, q3Stats and q5 are the q5_session cycle's MATERIALIZE
	// statistics and the join's fingerprint.
	q2Stats, q3Stats engine.Stats
	q5               fingerprint
}

func queryFingerprint(db *sql.DB, text string) (fingerprint, error) {
	rows, err := db.Query(text)
	if err != nil {
		return fingerprint{}, fmt.Errorf("%s: %w", text, err)
	}
	var fp fingerprint
	if _, err := drain(rows, &fp); err != nil {
		return fingerprint{}, fmt.Errorf("%s: %w", text, err)
	}
	return fp, nil
}

func computeExpected(w *workload, csvPath string) (*expected, error) {
	st, err := openStore(csvPath)
	if err != nil {
		return nil, err
	}
	db := sql.Open(st)
	defer db.Close()
	exp := &expected{stmts: make(map[string]fingerprint), r: &relWatch{stats: db.Stats("R")}}
	stmts := w.stmts
	if stmts == nil {
		stmts = []string{census.SQL["Q1"]}
	}
	for _, text := range stmts {
		if exp.stmts[text], err = queryFingerprint(db, text); err != nil {
			return nil, err
		}
	}
	if w.stmts != nil {
		return exp, nil
	}
	q2, q3, join := q5Names(0)
	r2, err := db.Materialize(q2, census.SQL["Q2"])
	if err != nil {
		return nil, err
	}
	r3, err := db.Materialize(q3, census.SQL["Q3"])
	if err != nil {
		return nil, err
	}
	exp.q2Stats, exp.q3Stats = r2.Stats, r3.Stats
	if exp.q5, err = queryFingerprint(db, join); err != nil {
		return nil, err
	}
	return exp, nil
}
