package engine

import (
	"fmt"
	"sync"
	"testing"
)

// poolWorkload runs one query-shaped workload (select + project + native
// confidence) on the given arena and renders the result deterministically.
// It returns rather than fails on error so worker goroutines can report
// through a channel (t.Fatal must not run off the test goroutine).
func poolWorkload(ar *Arena, rel string) (string, error) {
	r := ar.Rel(rel)
	if _, err := ar.Select("sel", rel, Gt(r.Attrs[0], 0)); err != nil {
		return "", err
	}
	if _, err := ar.Project("proj", "sel", r.Attrs[0], r.Attrs[1]); err != nil {
		return "", err
	}
	tcs, err := PossibleP(ar, "proj")
	if err != nil {
		return "", err
	}
	st := ar.Stats("proj")
	out := fmt.Sprintf("stats=%+v\n", st)
	for _, tc := range tcs {
		out += fmt.Sprintf("%v %.17g\n", tc.Tuple, tc.Conf)
	}
	return out, nil
}

// TestArenaPoolByteIdentical checks that pooled arenas (Acquire/Release
// cycles reusing scratch) and unpooled arenas (fresh NewArena per run)
// produce byte-identical results, including while many goroutines churn the
// pool concurrently — run under -race in CI.
func TestArenaPoolByteIdentical(t *testing.T) {
	s := RandomConfStore(t, 7)
	rel := s.Relations()[0]
	snap := s.Snapshot()
	want, err := poolWorkload(NewArena(snap), rel)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential reuse: the same pooled arena object serves many runs.
	for i := 0; i < 10; i++ {
		ar := AcquireArena(snap)
		got, err := poolWorkload(ar, rel)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("pooled run %d diverged:\n%s\nwant:\n%s", i, got, want)
		}
		ReleaseArena(ar)
	}

	// Concurrent churn: pooled and unpooled runs race over one snapshot.
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var ar *Arena
				if (w+i)%2 == 0 {
					ar = AcquireArena(snap)
				} else {
					ar = NewArena(snap)
				}
				got, err := poolWorkload(ar, rel)
				if (w+i)%2 == 0 {
					ReleaseArena(ar)
				}
				if err != nil {
					errs <- fmt.Sprintf("worker %d run %d: %v", w, i, err)
					return
				}
				if got != want {
					errs <- fmt.Sprintf("worker %d run %d diverged", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestArenaResetAfterCommit checks a committed (spent) arena is safe to
// release and reuse: Reset drops the references Commit left behind.
func TestArenaResetAfterCommit(t *testing.T) {
	s := RandomConfStore(t, 11)
	rel := s.Relations()[0]
	ar := AcquireArena(s.Snapshot())
	r := ar.Rel(rel)
	if _, err := ar.Select("committed_sel", rel, Gt(r.Attrs[0], 0)); err != nil {
		t.Fatal(err)
	}
	if err := ar.Commit(); err != nil {
		t.Fatal(err)
	}
	ReleaseArena(ar)
	if s.Rel("committed_sel") == nil {
		t.Fatal("committed relation missing from store")
	}
	// The next acquisition may hand back the same object; it must behave
	// like a fresh arena over the new snapshot.
	ar2 := AcquireArena(s.Snapshot())
	defer ReleaseArena(ar2)
	if ar2.Rel("committed_sel") == nil {
		t.Fatal("reset arena does not see the committed catalog")
	}
	if len(ar2.rels) != 0 || len(ar2.relID) != 0 || len(ar2.comps) != 0 {
		t.Fatal("reset arena carries stale session state")
	}
	if _, err := ar2.Select("sel2", "committed_sel", Gt(r.Attrs[0], 0)); err != nil {
		t.Fatal(err)
	}
}
