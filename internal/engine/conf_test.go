package engine_test

import (
	"fmt"
	"testing"

	"maybms/internal/bridge"
	"maybms/internal/confidence"
	. "maybms/internal/engine"
	"maybms/internal/relation"
)

// These tests differential-test the native confidence path (conf.go) against
// the WSD bridge plus internal/confidence — the reference oracle — and,
// where the world count stays small, against explicit world enumeration.

// confEps tolerates the floating-point combination-order differences between
// the native path and the oracle (marginalize-then-compose vs
// compose-then-marginalize sums masses in different orders).
const confEps = 1e-12

// nativeToRelation converts a native tuple to the oracle's representation.
func nativeToRelation(t []int32) relation.Tuple {
	out := make(relation.Tuple, len(t))
	for i, v := range t {
		out[i] = relation.Int(int64(v))
	}
	return out
}

func diffPossibleP(t *testing.T, label string, native []TupleConf, oracle []confidence.TupleConf) {
	t.Helper()
	if len(native) != len(oracle) {
		t.Fatalf("%s: native %d tuples, oracle %d", label, len(native), len(oracle))
	}
	for i := range native {
		nt := nativeToRelation(native[i].Tuple)
		if relation.CompareTuples(nt, oracle[i].Tuple) != 0 {
			t.Fatalf("%s: tuple %d: native %v, oracle %v", label, i, nt, oracle[i].Tuple)
		}
		if d := native[i].Conf - oracle[i].Conf; d > confEps || d < -confEps {
			t.Fatalf("%s: tuple %v: native conf %g, oracle %g", label, nt, native[i].Conf, oracle[i].Conf)
		}
	}
}

func TestNativeConfidenceMatchesOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		s := RandomConfStore(t, seed)
		for _, rel := range s.Relations() {
			label := fmt.Sprintf("seed %d rel %s", seed, rel)
			w, err := bridge.ToWSDOf(s, rel)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			oracle, err := confidence.PossibleP(w, rel)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			native, err := PossibleP(s, rel)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			diffPossibleP(t, label, native, oracle)

			// Possible is the confidence table minus the confidences.
			poss, err := Possible(s, rel)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(poss) != len(native) {
				t.Fatalf("%s: Possible %d tuples, PossibleP %d", label, len(poss), len(native))
			}
			for i := range poss {
				if CompareTuples(poss[i], native[i].Tuple) != 0 {
					t.Fatalf("%s: Possible[%d] = %v, want %v", label, i, poss[i], native[i].Tuple)
				}
			}

			// Conf and Certain per possible tuple, plus one absent tuple.
			for _, tc := range native {
				got, err := Conf(s, rel, tc.Tuple)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := confidence.Conf(w, rel, nativeToRelation(tc.Tuple))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if d := got - want; d > confEps || d < -confEps {
					t.Fatalf("%s: Conf(%v) = %g, oracle %g", label, tc.Tuple, got, want)
				}
				gotCert, err := Certain(s, rel, tc.Tuple, 1e-9)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				wantCert, err := confidence.Certain(w, rel, nativeToRelation(tc.Tuple), 1e-9)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if gotCert != wantCert {
					t.Fatalf("%s: Certain(%v) = %v, oracle %v", label, tc.Tuple, gotCert, wantCert)
				}
			}
			r := s.Rel(rel)
			missing := make([]int32, len(r.Attrs))
			for i := range missing {
				missing[i] = 99
			}
			got, err := Conf(s, rel, missing)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got != 0 {
				t.Fatalf("%s: Conf(absent tuple) = %g, want 0", label, got)
			}
		}
	}
}

// TestNativeConfidenceMatchesWorldEnumeration cross-checks the native
// confidence table against explicit world enumeration: the confidence of a
// tuple is the summed probability of the worlds containing it.
func TestNativeConfidenceMatchesWorldEnumeration(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		s := RandomConfStore(t, seed)
		for _, rel := range s.Relations() {
			label := fmt.Sprintf("seed %d rel %s", seed, rel)
			ws, err := bridge.RepRelation(s, rel, 1<<16)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			conf := make(map[string]float64)
			for i, w := range ws.Worlds {
				for _, tup := range w.Rel(rel).Tuples() {
					conf[tup.Key()] += ws.Probs[i]
				}
			}
			native, err := PossibleP(s, rel)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(native) != len(conf) {
				t.Fatalf("%s: native %d tuples, enumeration %d", label, len(native), len(conf))
			}
			for _, tc := range native {
				want, ok := conf[nativeToRelation(tc.Tuple).Key()]
				if !ok {
					t.Fatalf("%s: native tuple %v not in any enumerated world", label, tc.Tuple)
				}
				if d := tc.Conf - want; d > 1e-9 || d < -1e-9 {
					t.Fatalf("%s: tuple %v: native conf %g, enumeration %g", label, tc.Tuple, tc.Conf, want)
				}
			}
		}
	}
}

// TestNativeConfidenceOnArenaResults checks the native path on the surface
// the query engine actually uses: operator results in an arena, whose
// components extend and compose base components of the snapshot (producing
// absence marks and cross-relation sharing organically).
func TestNativeConfidenceOnArenaResults(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		s := RandomConfStore(t, seed)
		rel := s.Relations()[0]
		r := s.Rel(rel)
		ar := NewArena(s.Snapshot())
		if err := ar.Select("sel", rel, Gt(r.Attrs[0], 0)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := ar.Project("proj", "sel", r.Attrs[0], r.Attrs[1]); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, res := range []string{"sel", "proj"} {
			label := fmt.Sprintf("seed %d result %s", seed, res)
			native, err := PossibleP(ar, res)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if ar.Rel(res).NumRows() == 0 {
				// The oracle cannot express an empty probabilistic result (a
				// WSD with no components reports non-probabilistic); the
				// native path returns the empty table.
				if len(native) != 0 {
					t.Fatalf("%s: empty result has %d possible tuples", label, len(native))
				}
				continue
			}
			w, err := bridge.ToWSDOf(ar, res)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			oracle, err := confidence.PossibleP(w, res)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			diffPossibleP(t, label, native, oracle)
		}
	}
}

func TestCompareTuples(t *testing.T) {
	cases := []struct {
		a, b []int32
		want int
	}{
		{nil, nil, 0},
		{[]int32{1}, []int32{1}, 0},
		{[]int32{1}, []int32{2}, -1},
		{[]int32{2}, []int32{1}, 1},
		{[]int32{1, 2}, []int32{1, 3}, -1},
		{[]int32{1}, []int32{1, 0}, -1},
		{[]int32{1, 0}, []int32{1}, 1},
	}
	for _, c := range cases {
		if got := CompareTuples(c.a, c.b); got != c.want {
			t.Errorf("CompareTuples(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
