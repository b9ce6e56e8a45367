package main

import (
	"strings"
	"testing"

	"maybms/internal/bench"
	"maybms/internal/sql"
)

// TestRunReportsFailure checks that a script run through the REPL reports
// whether every statement and meta command succeeded — what -exec turns
// into its exit status.
func TestRunReportsFailure(t *testing.T) {
	p, err := bench.Prepare(200, 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := sql.Open(p.Store)
	defer db.Close()
	for _, tc := range []struct {
		script string
		ok     bool
	}{
		{"SELECT CONF() FROM R WHERE YEARSCH = 17;\n\\d\n\\stats R\nSELECT * FROM R WHERE CITIZEN = 0", true},
		{"SELECT * FROM nope", false},
		{"SELECT * FROM nope;\nSELECT CONF() FROM R WHERE YEARSCH = 17;", false},
		{"\\stats nope", false},
		{"\\exec missing", false},
		{"\\bogus", false},
		{"SELECT * FROM nope;\n\\q", false},
	} {
		r := newREPL(&localBackend{db: db}, 5)
		if got := r.run(strings.NewReader(tc.script), false); got != tc.ok {
			t.Errorf("run(%q) = %v, want %v", tc.script, got, tc.ok)
		}
	}
}
