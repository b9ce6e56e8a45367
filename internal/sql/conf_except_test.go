package sql

import (
	"math"
	"testing"
)

// TestConfOverExcept checks the across-world modes applied to a difference:
// CONF()/POSSIBLE/CERTAIN head the leftmost arm and apply to the whole
// EXCEPT query, computed natively on the difference result.
func TestConfOverExcept(t *testing.T) {
	queries := []string{
		"SELECT CONF() FROM R EXCEPT SELECT A, B FROM R WHERE B > 15",
		"SELECT POSSIBLE A FROM R EXCEPT SELECT A FROM R WHERE B > 25",
		"SELECT CERTAIN A FROM R EXCEPT SELECT A FROM R WHERE A = 1",
	}
	for _, q := range queries {
		s := tinyStore(t)
		ws := worldSetOf(t, s)
		st, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := ExecWorlds(st, ws, "P")
		if err != nil {
			t.Fatalf("%s: per-world: %v", q, err)
		}
		got, err := execSQL(s, q, "P")
		if err != nil {
			t.Fatalf("%s: engine: %v", q, err)
		}
		if len(got.Tuples) != len(want.Tuples) {
			t.Fatalf("%s: %d tuples on engine path, %d per world", q, len(got.Tuples), len(want.Tuples))
		}
		for i := range got.Tuples {
			if !relTuple(got.Tuples[i].Tuple).Equal(want.Tuples[i].Tuple) {
				t.Fatalf("%s: tuple %d: %v vs %v", q, i, got.Tuples[i].Tuple, want.Tuples[i].Tuple)
			}
			if math.Abs(got.Tuples[i].Conf-want.Tuples[i].Conf) > 1e-9 {
				t.Fatalf("%s: conf of %v: %g vs %g", q, got.Tuples[i].Tuple, got.Tuples[i].Conf, want.Tuples[i].Conf)
			}
		}
	}
}
