package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"maybms/internal/engine"
	"maybms/internal/relation"
)

// requireDeltaEqualsFull asserts the purity invariant after a commit: the
// incrementally maintained shard set is indistinguishable from one built
// from scratch on the same authority — same per-shard fingerprints, valid,
// and a confidence table bit-identical to the unsharded engine's.
func requireDeltaEqualsFull(t *testing.T, ctx string, authority *engine.Store, sh *Store) {
	t.Helper()
	if err := sh.Current().Validate(authority.Snapshot()); err != nil {
		t.Fatalf("%s: Validate: %v", ctx, err)
	}
	fresh, err := New(authority, sh.Current().N(), 1)
	if err != nil {
		t.Fatalf("%s: fresh New: %v", ctx, err)
	}
	if got, want := fingerprints(t, sh.Current()), fingerprints(t, fresh.Current()); !slices.Equal(got, want) {
		t.Fatalf("%s: fingerprints %08x, a fresh partition has %08x", ctx, got, want)
	}
	if got, want := sh.Current().LastResync().ShardRows, fresh.Current().LastResync().ShardRows; !slices.Equal(got, want) {
		t.Fatalf("%s: rows per shard %v, a fresh partition has %v", ctx, got, want)
	}
	for _, rel := range authority.Relations() {
		want, err := engine.PossibleP(authority, rel)
		if err != nil {
			t.Fatalf("%s: authority PossibleP(%s): %v", ctx, rel, err)
		}
		got, err := possibleP(sh.Current(), rel)
		if err != nil {
			t.Fatalf("%s: sharded PossibleP(%s): %v", ctx, rel, err)
		}
		requireSameTable(t, ctx+" rel "+rel, want, got)
	}
}

// commitArena runs ops in an arena over the authority and commits it; a
// failed operator (a join blowing a component limit) commits nothing.
func commitArena(authority *engine.Store, ops func(a *engine.Arena) error) bool {
	a := engine.NewArena(authority.Snapshot())
	if err := ops(a); err != nil {
		return false
	}
	return a.Commit() == nil
}

// joinOf commits res := (l WHERE A > cut) ⋈_{A = X} (r renamed to X, Y, Z
// WHERE X > cut). Pairs with an uncertain join field compose the two rows'
// components, so the commit merges connectivity units across relations.
func joinOf(authority *engine.Store, res, l, r string, cut int32) bool {
	return commitArena(authority, func(a *engine.Arena) error {
		if err := a.Select("\x00l", l, engine.Gt("A", cut)); err != nil {
			return err
		}
		if err := a.Rename("\x00n", r, map[string]string{"A": "X", "B": "Y", "C": "Z"}); err != nil {
			return err
		}
		if err := a.Select("\x00r", "\x00n", engine.Gt("X", cut)); err != nil {
			return err
		}
		if _, err := a.Join(res, "\x00l", "\x00r", "A", "X"); err != nil {
			return err
		}
		a.DropRelation("\x00l")
		a.DropRelation("\x00n")
		a.DropRelation("\x00r")
		return nil
	})
}

// randomCommit applies one random catalog change to the authority and
// reports what it was ("" when the draw could not be applied). Fresh
// relation names come from *next.
func randomCommit(r *rand.Rand, authority *engine.Store, next *int) string {
	rels := authority.Relations()
	pick := func() string { return rels[r.Intn(len(rels))] }
	// Selections keep the generator's A, B, C schema and can feed further
	// operators; projections and join results do not.
	var bases []string
	for _, name := range rels {
		if slices.Equal(authority.Rel(name).Attrs, []string{"A", "B", "C"}) {
			bases = append(bases, name)
		}
	}
	fresh := func() string { *next++; return fmt.Sprintf("T%d", *next) }
	switch op := r.Intn(9); {
	case op == 0 && len(bases) > 0:
		src, res := bases[r.Intn(len(bases))], fresh()
		if commitArena(authority, func(a *engine.Arena) error {
			err := a.Select(res, src, engine.Gt("B", int32(r.Intn(30))))
			return err
		}) {
			return "select"
		}
	case op == 1 && len(bases) > 0:
		src, res := bases[r.Intn(len(bases))], fresh()
		if commitArena(authority, func(a *engine.Arena) error {
			err := a.Project(res, src, "A", "C")
			return err
		}) {
			return "project"
		}
	case op == 2 || op == 3:
		if len(bases) > 0 {
			l, rr := bases[r.Intn(len(bases))], bases[r.Intn(len(bases))]
			if joinOf(authority, fresh(), l, rr, int32(20+r.Intn(15))) {
				return "join"
			}
		}
	case op == 4 && len(rels) > 1:
		authority.DropRelation(pick())
		return "drop"
	case op == 5:
		if authority.RenameRelation(pick(), fresh()) == nil {
			return "rename"
		}
	case op == 6:
		st := randState(r, 1, 10)
		st.Rels[0].Name = fresh()
		if authority.InstallRelation(st.Rels[0], st.Comps) == nil {
			return "install"
		}
	case op == 7:
		rel := authority.Rel(pick())
		for try := 0; try < 8 && rel.NumRows() > 0; try++ {
			row, a := r.Intn(rel.NumRows()), r.Intn(len(rel.Attrs))
			if rel.Cols[a][row] == engine.Placeholder {
				continue
			}
			if authority.SetUncertain(rel.Name, row, rel.Attrs[a], []int32{int32(r.Intn(40)), 41}, nil) == nil {
				return "set-uncertain"
			}
		}
	case op == 8 && len(bases) > 0:
		rel := bases[r.Intn(len(bases))]
		deps := []engine.EGD{{
			Premise:    []engine.Atom{{Attr: "A", Theta: relation.LT, C: int32(5 + r.Intn(10))}},
			Conclusion: engine.Atom{Attr: "B", Theta: relation.LT, C: int32(25 + r.Intn(15))},
		}}
		// A chase that finds the data inconsistent stops part-way; the
		// snapshot taken before it is the way back.
		pre := authority.Snapshot()
		if authority.ChaseEGDs(rel, deps) == nil {
			return "chase"
		}
		authority.Rollback(pre)
	}
	return ""
}

// TestDeltaEqualsFull drives seeded random commit sequences through Resync
// and checks after every commit that maintaining the shard set and building
// it from scratch are the same function.
func TestDeltaEqualsFull(t *testing.T) {
	seeds := int64(70)
	if testing.Short() {
		seeds = 10
	}
	seen := map[string]int{}
	moved, sequences := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		for _, n := range []int{2, 3, 8} {
			sequences++
			r := rand.New(rand.NewSource(seed*31 + int64(n)))
			authority := mustImport(t, randState(r, 2, 14))
			sh, err := New(authority, n, 2)
			if err != nil {
				t.Fatalf("seed %d n=%d: New: %v", seed, n, err)
			}
			next := 0
			for step := 0; step < 8; step++ {
				before := len(authority.Relations())
				op := randomCommit(r, authority, &next)
				if op == "" {
					continue
				}
				seen[op]++
				if err := sh.Resync(); err != nil {
					t.Fatalf("seed %d n=%d step %d (%s): Resync: %v", seed, n, step, op, err)
				}
				ctx := fmt.Sprintf("seed %d n=%d step %d (%s)", seed, n, step, op)
				st := sh.Current().LastResync()
				if st.Full {
					t.Fatalf("%s: full rebuild", ctx)
				}
				// SetUncertain replaces one relation, the chase at most one.
				if (op == "set-uncertain" || op == "chase") && st.RelsRebuilt > 1 {
					t.Fatalf("%s: stats %+v, want every untouched relation kept", ctx, st)
				}
				// A commit that adds one relation but rebuilds more re-assigned
				// an existing one: rows moved between shards.
				if op == "join" && st.RelsRebuilt > len(authority.Relations())-before {
					moved++
				}
				requireDeltaEqualsFull(t, ctx, authority, sh)
			}
		}
	}
	t.Logf("%d sequences, commits by kind %v, %d joins moved rows of an existing relation", sequences, seen, moved)
	if testing.Short() {
		return
	}
	if sequences < 200 {
		t.Fatalf("%d sequences, want ≥ 200", sequences)
	}
	for _, op := range []string{"select", "project", "join", "drop", "rename", "install", "set-uncertain", "chase"} {
		if seen[op] == 0 {
			t.Errorf("no %s commit was exercised", op)
		}
	}
	if moved == 0 {
		t.Errorf("no join re-assigned rows of an existing relation; the unit-merge case went untested")
	}
}

// crossShardJoinStore builds L and S with one uncertain join field each — L
// row 1 (dealt to shard 1 of 2) and S row 0 (dealt to shard 0) — both able
// to take the value 7, and no other matching pair.
func crossShardJoinStore(t *testing.T) *engine.Store {
	t.Helper()
	s := engine.NewStore()
	if _, err := s.AddRelation("L", []string{"A", "B", "C"}, [][]int32{{1, 7, 3, 4}, {10, 11, 12, 13}, {0, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRelation("S", []string{"A", "B", "C"}, [][]int32{{7, 5, 6}, {20, 21, 22}, {0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("L", 1, "A", []int32{7, 8}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("S", 0, "A", []int32{7, 9}, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestJoinCommitMovesRows pins the hard case of the delta: a committed join
// matches L row 1 (shard 1) with S row 0 (shard 0) through their uncertain
// join fields, composing the two components. The units merge, the merged
// unit lives where its minimal member (L, 1) does, so S row 0 moves to shard
// 1 — S is the same *Relation object, yet must be re-sliced.
func TestJoinCommitMovesRows(t *testing.T) {
	authority := crossShardJoinStore(t)
	sh, err := New(authority, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rowsOf := func(rel string) []int {
		var out []int
		for _, info := range sh.Current().RelInfo(rel) {
			out = append(out, info.Rows)
		}
		return out
	}
	if got := rowsOf("S"); !slices.Equal(got, []int{2, 1}) {
		t.Fatalf("S before the join: rows per shard %v, want [2 1]", got)
	}
	lBefore := sh.Snapshots()[0].Rel("L")
	if !joinOf(authority, "J", "L", "S", 0) {
		t.Fatal("join did not commit")
	}
	if authority.Rel("J").NumRows() == 0 {
		t.Fatal("join result is empty; the test would be vacuous")
	}
	if err := sh.Resync(); err != nil {
		t.Fatal(err)
	}
	if got := rowsOf("S"); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("S after the join: rows per shard %v, want [1 2] (row 0 follows the merged unit)", got)
	}
	if sh.Snapshots()[0].Rel("L") != lBefore {
		t.Fatalf("L was rebuilt although none of its rows moved")
	}
	st := sh.Current().LastResync()
	if st.Full || st.RelsKept != 1 || st.RelsRebuilt != 2 {
		t.Fatalf("stats %+v, want a delta keeping L and rebuilding S and J", st)
	}
	requireDeltaEqualsFull(t, "after join", authority, sh)

	// Dropping J trims the merged component but leaves it spanning L and S:
	// the units stay merged, nothing moves back.
	authority.DropRelation("J")
	if err := sh.Resync(); err != nil {
		t.Fatal(err)
	}
	if st := sh.Current().LastResync(); st.RelsRebuilt != 0 || st.CellsCopied != 0 {
		t.Fatalf("stats after drop %+v, want nothing re-sliced", st)
	}
	requireDeltaEqualsFull(t, "after drop", authority, sh)
}

// TestResyncReusesUntouchedRelations: across MATERIALIZE + DROP of a
// selection over R0, every shard's copy of R0 is the same object, and the
// counters say only the result's cells were copied; SetUncertain rebuilds the
// one relation it replaces and a chase that removes nothing rebuilds none.
func TestResyncReusesUntouchedRelations(t *testing.T) {
	authority := mustImport(t, randState(rand.New(rand.NewSource(5)), 2, 200))
	sh, err := New(authority, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := sh.Current().LastResync(); !st.Full || st.RelsKept != 0 || st.RelsRebuilt != 2 || st.Generation != 1 {
		t.Fatalf("first build: stats %+v", st)
	}
	copies := func() []*engine.Relation {
		var out []*engine.Relation
		for _, sn := range sh.Snapshots() {
			out = append(out, sn.Rel("R0"), sn.Rel("R1"))
		}
		return out
	}
	before := copies()

	if !commitArena(authority, func(a *engine.Arena) error {
		err := a.Select("Q", "R0", engine.Gt("A", 10))
		return err
	}) {
		t.Fatal("select did not commit")
	}
	if err := sh.Resync(); err != nil {
		t.Fatal(err)
	}
	q := authority.Rel("Q")
	st := sh.Current().LastResync()
	if st.Full || st.RelsKept != 2 || st.RelsRebuilt != 1 {
		t.Fatalf("after MATERIALIZE: stats %+v, want a delta keeping R0 and R1", st)
	}
	if want := int64(q.NumRows() * len(q.Attrs)); st.CellsCopied != want || want == 0 {
		t.Fatalf("after MATERIALIZE: %d cells copied, want exactly Q's %d", st.CellsCopied, want)
	}
	if st.CompsKept == 0 || st.CompsRebuilt == 0 {
		t.Fatalf("after MATERIALIZE: stats %+v, want components both kept and rebuilt", st)
	}
	if !slices.Equal(copies(), before) {
		t.Fatalf("after MATERIALIZE: a shard's copy of R0 or R1 was rebuilt")
	}
	requireDeltaEqualsFull(t, "after MATERIALIZE", authority, sh)

	authority.DropRelation("Q")
	if err := sh.Resync(); err != nil {
		t.Fatal(err)
	}
	st = sh.Current().LastResync()
	if st.Full || st.RelsKept != 2 || st.RelsRebuilt != 0 || st.CellsCopied != 0 || st.Generation != 3 {
		t.Fatalf("after DROP: stats %+v, want nothing copied", st)
	}
	if !slices.Equal(copies(), before) {
		t.Fatalf("after DROP: a shard's copy of R0 or R1 was rebuilt")
	}
	requireDeltaEqualsFull(t, "after DROP", authority, sh)

	r0 := authority.Rel("R0")
	row := slices.IndexFunc(r0.Cols[0], func(v int32) bool { return v != engine.Placeholder })
	if err := authority.SetUncertain("R0", row, "A", []int32{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sh.Resync(); err != nil {
		t.Fatal(err)
	}
	after := copies()
	if st := sh.Current().LastResync(); st.Full || st.RelsKept != 1 || st.RelsRebuilt != 1 || st.CompsKept == 0 {
		t.Fatalf("after SetUncertain: stats %+v, want a delta rebuilding R0 alone", st)
	}
	for i := 0; i < len(after); i += 2 {
		if after[i] == before[i] || after[i+1] != before[i+1] {
			t.Fatalf("after SetUncertain: shard %d kept its copy of R0 or rebuilt R1", i/2)
		}
	}
	requireDeltaEqualsFull(t, "after SetUncertain", authority, sh)

	// B < 40 holds for every generated value: the chase removes no local
	// world, so it replaces nothing.
	deps := []engine.EGD{{
		Premise:    []engine.Atom{{Attr: "A", Theta: relation.LT, C: 3}},
		Conclusion: engine.Atom{Attr: "B", Theta: relation.LT, C: 40},
	}}
	if err := authority.ChaseEGDs("R1", deps); err != nil {
		t.Fatal(err)
	}
	if err := sh.Resync(); err != nil {
		t.Fatal(err)
	}
	if st := sh.Current().LastResync(); st.Full || st.RelsRebuilt != 0 || st.CellsCopied != 0 {
		t.Fatalf("after chase: stats %+v, want nothing re-sliced", st)
	}
	if !slices.Equal(copies(), after) {
		t.Fatalf("after chase: a shard's copy of R0 or R1 was rebuilt")
	}
	requireDeltaEqualsFull(t, "after chase", authority, sh)
}

// requireSameSet asserts that two shard sets over the same authority state
// are the same function of it: per-shard states, fingerprints and rows per
// shard, and re-balance statistics that cover every live relation and
// component. The kept/rebuilt split is not compared: it describes the path
// a set was derived along, not the set.
func requireSameSet(t *testing.T, ctx string, got, want *Set) {
	t.Helper()
	for k, sn := range got.Snapshots() {
		if g, w := sn.ExportState(), want.Snapshots()[k].ExportState(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: shard %d state differs:\n%+v\nwant:\n%+v", ctx, k, g, w)
		}
	}
	if g, w := fingerprints(t, got), fingerprints(t, want); !slices.Equal(g, w) {
		t.Fatalf("%s: fingerprints %08x, want %08x", ctx, g, w)
	}
	gs, ws := got.LastResync(), want.LastResync()
	if !slices.Equal(gs.ShardRows, ws.ShardRows) ||
		gs.RelsKept+gs.RelsRebuilt != ws.RelsKept+ws.RelsRebuilt ||
		gs.CompsKept+gs.CompsRebuilt != ws.CompsKept+ws.CompsRebuilt {
		t.Fatalf("%s: stats %+v, want the objects of %+v", ctx, gs, ws)
	}
}

// requireSkipsEqualChain re-balances once from the set built k states back,
// for every k in ks and every state that far along, and asserts the result
// equals both the per-commit chain and a fresh build of the state: a set is
// a pure function of the authority state, so a reader may skip the states
// no one asked a set of.
func requireSkipsEqualChain(t *testing.T, ctx string, n int, states []*engine.Snapshot, ks []int) {
	t.Helper()
	empty, err := NewSet(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	chain := make([]*Set, len(states))
	for i, sn := range states {
		from := empty
		if i > 0 {
			from = chain[i-1]
		}
		if chain[i], err = from.Next(sn); err != nil {
			t.Fatalf("%s: chain step %d: %v", ctx, i, err)
		}
	}
	for _, k := range ks {
		for i := k; i < len(states); i++ {
			at := fmt.Sprintf("%s: state %d from %d back", ctx, i, k)
			skip, err := chain[i-k].Next(states[i])
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			fresh, err := empty.Next(states[i])
			if err != nil {
				t.Fatalf("%s: fresh build: %v", at, err)
			}
			if skip.LastResync().Full || skip.LastResync().Generation != chain[i-k].LastResync().Generation+1 {
				t.Fatalf("%s: stats %+v, want a delta one generation on", at, skip.LastResync())
			}
			if k == 1 {
				gs, cs := skip.LastResync(), chain[i].LastResync()
				gs.Duration, cs.Duration = 0, 0
				if !reflect.DeepEqual(gs, cs) {
					t.Fatalf("%s: stats %+v, the chain's %+v", at, gs, cs)
				}
			}
			requireSameSet(t, at+" vs chain", skip, chain[i])
			requireSameSet(t, at+" vs fresh", skip, fresh)
			if err := skip.Validate(states[i]); err != nil {
				t.Fatalf("%s: Validate: %v", at, err)
			}
		}
	}
}

// TestSkippedStatesEqualChain: deriving a set once across k ∈ {1, 2, 5}
// commits equals deriving it commit by commit and building it afresh. The
// scripted sequence covers a MATERIALIZE whose join merges units across
// shards (S row 0 moves), SET UNCERTAIN, a CHASE that removes local worlds
// of the merged component, and a DROP; seeded random sequences cover the
// rest of randomCommit's kinds.
func TestSkippedStatesEqualChain(t *testing.T) {
	ks := []int{1, 2, 5}
	authority := crossShardJoinStore(t)
	states := []*engine.Snapshot{authority.Snapshot()}
	step := func(what string, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("%s did not commit", what)
		}
		states = append(states, authority.Snapshot())
	}
	step("join", joinOf(authority, "J", "L", "S", 0))
	step("select", commitArena(authority, func(a *engine.Arena) error { return a.Select("Q", "S", engine.Gt("B", 0)) }))
	step("set-uncertain", authority.SetUncertain("L", 2, "B", []int32{11, 12}, nil) == nil)
	worlds := func() (n int) {
		authority.Snapshot().EachComp(func(c *engine.Component) { n += c.Size() })
		return n
	}
	before := worlds()
	step("chase", authority.ChaseEGDs("S", []engine.EGD{{
		Premise:    []engine.Atom{{Attr: "A", Theta: relation.EQ, C: 9}},
		Conclusion: engine.Atom{Attr: "B", Theta: relation.LT, C: 0},
	}}) == nil)
	if got := worlds(); got >= before {
		t.Fatalf("the chase left %d of %d local worlds; it should remove S.A = 9", got, before)
	}
	step("drop", func() bool { authority.DropRelation("J"); return true }())
	step("drop", func() bool { authority.DropRelation("Q"); return true }())
	requireSkipsEqualChain(t, "script", 2, states, ks)

	seeds := int64(20)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		authority := mustImport(t, randState(r, 2, 14))
		states := []*engine.Snapshot{authority.Snapshot()}
		next := 0
		for len(states) < 9 {
			if randomCommit(r, authority, &next) != "" {
				states = append(states, authority.Snapshot())
			}
		}
		requireSkipsEqualChain(t, fmt.Sprintf("seed %d", seed), 3, states, ks)
	}
}
