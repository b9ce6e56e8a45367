package sql

import "testing"

// TestConfEmptyResult checks the native path's handling of an empty result:
// no possible tuples, no error (the WSD bridge could not even express this —
// a component-free WSD reports non-probabilistic).
func TestConfEmptyResult(t *testing.T) {
	s := tinyStore(t)
	db := Open(s)
	defer db.Close()
	for _, q := range []string{
		"SELECT CONF() FROM R WHERE A = 999",
		"SELECT POSSIBLE B FROM R WHERE A = 999",
		"SELECT CERTAIN B FROM R WHERE A = 999",
	} {
		rows, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if rows.Len() != 0 {
			t.Fatalf("%s: %d rows, want 0", q, rows.Len())
		}
		rows.Close()
	}
}
