package sql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"maybms/internal/engine"
	"maybms/internal/relation"
)

// TestInternCertainSaturates: a POSSIBLE, CERTAIN or CONF() over columns
// whose value counts admit few tuples stops interning the certain rows once
// it has seen them all, so it passes far fewer guard checkpoints than the
// walk over every certain row it replaces; unsharded and on two shards. Its
// tuples, their order and the bits of their confidences equal those of the
// same rows read as an arena result, which has no value counts and walks
// them all.
func TestInternCertainSaturates(t *testing.T) {
	const rows = 60000
	rng := rand.New(rand.NewSource(41))
	attrs := []string{"A", "B", "C"}
	doms := []int{6, 20, 4}
	cols := make([][]int32, len(attrs))
	for a := range cols {
		cols[a] = make([]int32, rows)
		for i := range cols[a] {
			cols[a][i] = int32(rng.Intn(doms[a]))
		}
	}
	s := engine.NewStore()
	if _, err := s.AddRelation("R", attrs, cols); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 200; k++ {
		a := rng.Intn(len(attrs))
		alts := []int32{int32(rng.Intn(doms[a])), int32(doms[a] + rng.Intn(3))}
		if err := s.SetUncertain("R", rng.Intn(rows), attrs[a], alts, nil); err != nil {
			t.Fatal(err)
		}
	}
	queries := []struct {
		sql, plain string
		where      engine.Pred
		attrs      []string
	}{
		{"SELECT POSSIBLE A FROM R WHERE B < 15", "SELECT A FROM R WHERE B < 15",
			engine.AttrConst{Attr: "B", Theta: relation.LT, C: 15}, []string{"A"}},
		{"SELECT CERTAIN A, C FROM R WHERE B < 15", "SELECT A, C FROM R WHERE B < 15",
			engine.AttrConst{Attr: "B", Theta: relation.LT, C: 15}, []string{"A", "C"}},
		{"SELECT CONF() FROM R WHERE C < 10", "SELECT * FROM R WHERE C < 10",
			engine.AttrConst{Attr: "C", Theta: relation.LT, C: 10}, attrs},
	}
	// checkpoints runs query on db and returns the guard checkpoints it
	// passed, counted as cancel_test.go's countCtx counts them.
	checkpoints := func(db *DB, query string) (int64, *Rows) {
		ctx := &countCtx{Context: context.Background()}
		TestHookExec = func(string) { ctx.armed.Store(true) }
		defer func() { TestHookExec = nil }()
		rs, err := db.QueryContext(ctx, query)
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		return ctx.calls.Load(), rs
	}
	unsharded, sharded := Open(s), Open(s)
	if err := sharded.EnableSharding(2, 1); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, walked := arenaResultTable(t, s.Snapshot(), q.where, q.attrs, strings.HasPrefix(q.sql, "SELECT CERTAIN"))
		for _, db := range []*DB{unsharded, sharded} {
			n, _ := db.Sharding()
			label := fmt.Sprintf("%q on %d shards", q.sql, n)
			// The first run builds the columns' value counts.
			_, rs := checkpoints(db, q.sql)
			rs.Close()
			plain, rs := checkpoints(db, q.plain)
			rs.Close()
			total, rs := checkpoints(db, q.sql)
			if got := modeTable(t, rs); !slices.Equal(got, want) {
				t.Fatalf("%s: answers\n%v\nwant those of the arena result\n%v", label, got, want)
			}
			if total-plain > walked/4 {
				t.Fatalf("%s: %d checkpoints beyond the plain query's %d; walking every certain row passes %d", label, total-plain, plain, walked)
			}
		}
	}
}

// arenaResultTable reads π_attrs(σ_where(R)) over a copy of R built in an
// arena, which has no value counts, and renders its confidence table as
// modeTable renders a mode result (certain keeps the tuples of confidence
// 1). It also returns the checkpoints the read passed: interning walks
// every certain row there.
func arenaResultTable(t *testing.T, sn *engine.Snapshot, where engine.Pred, attrs []string, certain bool) ([]string, int64) {
	t.Helper()
	ctx := &countCtx{Context: context.Background()}
	a := engine.NewArena(sn)
	a.SetGuard(engine.NewGuard(ctx))
	if err := a.Select("full", "R", nil); err != nil {
		t.Fatal(err)
	}
	if a.Rel("full") == nil {
		t.Fatal("building the copy of R failed")
	}
	if err := a.SelectProject("res", "full", where, attrs...); err != nil {
		t.Fatal(err)
	}
	ctx.armed.Store(true)
	tcs, err := engine.PossibleP(a, "res")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, tc := range tcs {
		if certain && tc.Conf < 1-certainEps {
			continue
		}
		var sb strings.Builder
		for _, v := range tc.Tuple {
			fmt.Fprintf(&sb, "%s|", relation.Int(int64(v)))
		}
		fmt.Fprintf(&sb, "%016x", math.Float64bits(tc.Conf))
		out = append(out, sb.String())
	}
	return out, ctx.calls.Load()
}
