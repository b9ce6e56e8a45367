package sql_test

import (
	"fmt"
	"strings"
	"testing"

	"maybms/internal/census"
	"maybms/internal/relation"
	"maybms/internal/sql"
)

// The relation-slot contract at the session layer: a new relation takes the
// lowest slot a DROP freed, so MATERIALIZE/DROP cycles leave the slot count
// at the peak number of live relations, and a cursor over a dropped relation
// keeps reading its own snapshot after another relation takes the slot.

// TestMaterializeDropCyclesReuseSlots: 500 MATERIALIZE/DROP cycles leave
// the catalog's slot count where one live result puts it.
func TestMaterializeDropCyclesReuseSlots(t *testing.T) {
	db := sql.Open(prepared(t))
	defer db.Close()
	for i := 0; i < 500; i++ {
		if _, err := db.Materialize("q", census.SQL["Q2"]); err != nil {
			t.Fatal(err)
		}
		if err := db.DropRelation("q"); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.Snapshot().NumRelSlots(); n > 3 {
		t.Fatalf("500 MATERIALIZE/DROP cycles left %d relation slots, want ≤ 3", n)
	}
}

// TestHeldCursorSurvivesSlotReuse: a cursor opened on a relation in slot k
// drains the rows it started with after a DROP of that relation and a
// MATERIALIZE that takes slot k, on one shard and on two. On two, the first
// mode query after the reuse derives a shard set whose slot k holds the new
// relation, and answers as a DB that never had the old one.
func TestHeldCursorSurvivesSlotReuse(t *testing.T) {
	const (
		old   = "SELECT POWSTATE, CITIZEN, IMMIGR FROM R WHERE CITIZEN <> 0"
		fresh = "SELECT POWSTATE, POB FROM R WHERE ENGLISH = 3"
	)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, text := range []string{"SELECT * FROM m", "SELECT CONF() FROM m"} {
				db := sql.Open(prepared(t))
				defer db.Close()
				if shards > 1 {
					if err := db.EnableSharding(shards, shards); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := db.Materialize("m", old); err != nil {
					t.Fatal(err)
				}
				k := slotOf(t, db, "m")
				want := drain(t, db, text, 0, nil)
				if strings.Count(want, "\n") < 2 {
					t.Fatalf("%s answers %q: too few rows to hold a cursor across", text, want)
				}
				got := drain(t, db, text, 1, func() {
					if err := db.DropRelation("m"); err != nil {
						t.Fatal(err)
					}
					if _, err := db.Materialize("n", fresh); err != nil {
						t.Fatal(err)
					}
					if got := slotOf(t, db, "n"); got != k {
						t.Fatalf("the new relation took slot %d, want the dropped one's %d", got, k)
					}
				})
				if got != want {
					t.Fatalf("%s: a cursor held across DROP and a slot-reusing MATERIALIZE drained\n%.400s\nwant\n%.400s", text, got, want)
				}
				ref := sql.Open(prepared(t))
				defer ref.Close()
				if _, err := ref.Materialize("n", fresh); err != nil {
					t.Fatal(err)
				}
				conf := "SELECT CONF() FROM n"
				if got, want := drain(t, db, conf, 0, nil), drain(t, ref, conf, 0, nil); got != want {
					t.Fatalf("the relation in the reused slot answers\n%.400s\nwant\n%.400s", got, want)
				}
				if shards > 1 {
					if err := db.ValidateShards(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// slotOf returns the slot rel occupies in db's published catalog.
func slotOf(t *testing.T, db *sql.DB, rel string) int {
	t.Helper()
	sn := db.Snapshot()
	for id := range sn.NumRelSlots() {
		if r := sn.RelByID(int32(id)); r != nil && r.Name == rel {
			return id
		}
	}
	t.Fatalf("relation %q is not in the catalog", rel)
	return -1
}

// drain renders every row of a query, values and confidence, running
// between (if set) once the first after rows are read.
func drain(t *testing.T, db *sql.DB, text string, after int, between func()) string {
	t.Helper()
	rows, err := db.Query(text)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var sb strings.Builder
	vals := make([]relation.Value, len(rows.Columns()))
	dests := make([]any, len(vals))
	for i := range vals {
		dests[i] = &vals[i]
	}
	for n := 0; ; n++ {
		if n == after && between != nil {
			between()
		}
		if !rows.Next() {
			break
		}
		if err := rows.Scan(dests...); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%v %x\n", vals, rows.Conf())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
