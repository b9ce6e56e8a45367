package engine_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"maybms/internal/bridge"
	. "maybms/internal/engine"
	"maybms/internal/relation"
)

// arenaStore builds a small store with composed-component potential: two
// relations, or-set fields with absence-free and probability-weighted
// local worlds.
func arenaStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 2, 3}, {10, 20, 30}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 0, "A", []int32{1, 2}, []float64{0.25, 0.75}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 2, "B", []int32{30, 40, 50}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRelation("S", []string{"C", "D"}, [][]int32{{1, 2}, {7, 8}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("S", 1, "C", []int32{2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// storeFingerprint captures everything queries must not change: catalog,
// per-relation stats, and the component count.
func storeFingerprint(s *Store) string {
	out := ""
	for _, name := range s.Relations() {
		out += fmt.Sprintf("%s:%+v;", name, s.Stats(name))
	}
	return fmt.Sprintf("%s comps=%d", out, s.NumComponents())
}

// TestArenaLeavesStoreUntouched runs every operator on an arena — including
// ones that force component adoption and composition — and checks the store
// is bit-for-bit unaffected, while the arena sees its own results.
func TestArenaLeavesStoreUntouched(t *testing.T) {
	s := arenaStore(t)
	before := storeFingerprint(s)
	a := NewArena(s.Snapshot())
	if err := a.Select("sel", "R", And{Gt("A", 1), Gt("B", 5)}); err != nil {
		t.Fatal(err)
	}
	if err := a.Project("proj", "sel", "B"); err != nil {
		t.Fatal(err)
	}
	if err := a.Rename("ren", "S", map[string]string{"C": "A2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("join", "proj", "ren", "B", "D"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Union("uni", "proj", "proj"); err != nil {
		t.Fatal(err)
	}
	if got := storeFingerprint(s); got != before {
		t.Fatalf("arena operators changed the store:\n pre %s\npost %s", before, got)
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	if a.Rel("sel") == nil || a.Rel("join") == nil {
		t.Fatal("arena lost its results")
	}
	// The arena sees snapshot relations too.
	if a.Rel("R") == nil {
		t.Fatal("arena cannot see snapshot relation R")
	}
}

// TestArenaMatchesCommitted checks the two views agree: the same operator
// chain read through its private arena and read from the store after Commit
// yields identical world-sets and statistics.
func TestArenaMatchesCommitted(t *testing.T) {
	mkChain := func(a *Arena) error {
		if err := a.Select("sel", "R", Or{Eq("A", 2), Gt("B", 25)}); err != nil {
			return err
		}
		err := a.Project("res", "sel", "B")
		return err
	}
	a := NewArena(arenaStore(t).Snapshot())
	if err := mkChain(a); err != nil {
		t.Fatal(err)
	}
	committed := arenaStore(t)
	Commit(t, committed, mkChain)
	if got, want := a.Stats("res"), committed.Stats("res"); got != want {
		t.Fatalf("stats diverge: arena %+v, committed %+v", got, want)
	}
	wa, err := bridge.RepRelation(a, "res", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := bridge.RepRelation(committed, "res", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if !wa.Equal(wc, 1e-9) {
		t.Fatal("arena and committed world-sets diverge")
	}
	if err := committed.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestArenaCommitInstallsResult checks Commit: the arena relation lands in
// the store under a fresh id, its components replace the shadowed ones, and
// the store validates; committing a taken name fails without side effects.
func TestArenaCommitInstallsResult(t *testing.T) {
	s := arenaStore(t)
	a := NewArena(s.Snapshot())
	if err := a.Select("res", "R", Gt("A", 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.Rel("res") == nil {
		t.Fatal("commit did not install res")
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatalf("store invalid after commit: %v", err)
	}
	// The result's uncertain fields resolve in the store's component space.
	if s.Stats("res").NumComp == 0 {
		t.Fatal("committed result has no components")
	}

	b := NewArena(s.Snapshot())
	if err := b.Select("res", "R", Gt("A", 0)); err == nil {
		t.Fatal("arena Select under a taken snapshot name must fail")
	}
	c := NewArena(s.Snapshot())
	if err := c.Select("res2", "R", Gt("A", 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.RenameRelation("res2", "res"); err == nil {
		t.Fatal("renaming onto a taken name must fail")
	}
	s.DropRelation("res")
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

// flatState renders an exported state by value, so two renderings differ
// exactly when a cell, field or local world does.
func flatState(st *StoreState) string {
	var b strings.Builder
	for i, r := range st.Rels {
		if r != nil {
			fmt.Fprintf(&b, "rel %d %+v\n", i, *r)
		}
	}
	for _, c := range st.Comps {
		fmt.Fprintf(&b, "comp %+v\n", *c)
	}
	fmt.Fprintf(&b, "next %d", st.NextCID)
	return b.String()
}

// TestSnapshotFrozenAcrossWrites checks the copy-on-write contract: a
// snapshot keeps resolving its frozen catalog while the store commits new
// results, drops and renames relations, turns fields into or-sets and
// chases — every mutator — and Rollback returns the store to it.
func TestSnapshotFrozenAcrossWrites(t *testing.T) {
	s := arenaStore(t)
	snap := s.Snapshot()
	statsBefore := snap.Stats("R")
	flatBefore := flatState(snap.ExportState())

	// Writer: a new or-set, then a chase that removes A = 2 from row 0's.
	if err := s.SetUncertain("R", 1, "B", []int32{20, 21}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUncertain("R", 1, "A", []int32{2, 5}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.ChaseEGDs("R", []EGD{{
		Premise:    []Atom{{Attr: "A", Theta: relation.EQ, C: 2}},
		Conclusion: Atom{Attr: "B", Theta: relation.NE, C: 10},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats("R"); got == statsBefore {
		t.Fatalf("the or-sets and the chase left R's stats at %+v", got)
	}

	// Writer: commit a result, drop it, rename a base relation.
	a := NewArena(s.Snapshot())
	if err := a.Select("res", "R", Gt("B", 15)); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	s.DropRelation("res")
	if err := s.RenameRelation("S", "S2"); err != nil {
		t.Fatal(err)
	}

	// The old snapshot still sees the original catalog.
	if snap.Rel("S") == nil || snap.Rel("S").Name != "S" {
		t.Fatal("snapshot lost relation S after rename")
	}
	if snap.Rel("res") != nil {
		t.Fatal("snapshot sees a relation committed after it was taken")
	}
	if got := snap.Stats("R"); got != statsBefore {
		t.Fatalf("snapshot stats drifted: %+v, want %+v", got, statsBefore)
	}
	if got := flatState(snap.ExportState()); got != flatBefore {
		t.Fatalf("a mutator edited an object the snapshot holds:\n%s\nwant:\n%s", got, flatBefore)
	}
	// A query over the old snapshot still runs.
	b := NewArena(snap)
	if _, err := b.Join("j", "R", "S", "A", "C"); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}

	// Rollback: the store is the snapshot's state again, and writable.
	s.Rollback(snap)
	if got := flatState(s.ExportState()); got != flatBefore {
		t.Fatalf("after Rollback:\n%s\nwant:\n%s", got, flatBefore)
	}
	if err := s.SetUncertain("R", 1, "B", []int32{20, 21}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	if got := flatState(snap.ExportState()); got != flatBefore {
		t.Fatalf("a write after Rollback edited the snapshot:\n%s\nwant:\n%s", got, flatBefore)
	}
}

// TestConcurrentArenasOverOneSnapshot runs many goroutines, each with its
// own arena over one shared snapshot, with operators that adopt and compose
// the same shared components; under -race this verifies the read path is
// lock- and write-free.
func TestConcurrentArenasOverOneSnapshot(t *testing.T) {
	s := arenaStore(t)
	snap := s.Snapshot()
	want := storeFingerprint(s)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				a := NewArena(snap)
				if err := a.Select("sel", "R", Gt("A", 1)); err != nil {
					errs <- err
					return
				}
				if _, err := a.Join("j", "sel", "S", "A", "C"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := storeFingerprint(s); got != want {
		t.Fatalf("concurrent arenas changed the store:\n pre %s\npost %s", want, got)
	}
}

// TestNewScratchAndRename covers the scratch-name lifecycle primitives the
// SQL session layer builds on.
func TestNewScratchAndRename(t *testing.T) {
	s := NewStore()
	a, b := s.NewScratch(), s.NewScratch()
	if a == b {
		t.Fatalf("NewScratch repeated %q", a)
	}
	if !strings.Contains(a, "\x00") {
		t.Fatalf("scratch name %q carries no NUL guard", a)
	}
	if _, err := s.AddRelation(a, []string{"A"}, [][]int32{{1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.RenameRelation(a, "out"); err != nil {
		t.Fatal(err)
	}
	if s.Rel(a) != nil || s.Rel("out") == nil {
		t.Fatal("rename did not move the catalog entry")
	}
	if err := s.RenameRelation("nope", "x"); err == nil {
		t.Fatal("renaming a missing relation succeeded")
	}
	if _, err := s.AddRelation("other", []string{"A"}, [][]int32{{2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.RenameRelation("other", "out"); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("rename onto live relation = %v, want already exists", err)
	}
	// The clone keeps issuing fresh scratch names.
	c := s.Clone()
	if n := c.NewScratch(); n == a || n == b {
		t.Fatalf("clone reissued scratch name %q", n)
	}
}
