package engine_test

import (
	"fmt"
	"math"
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
				if math.Float64bits(got) != math.Float64bits(tc.Conf) {
					t.Fatalf("%s: Conf(%v) = %v, PossibleP entry %v", label, tc.Tuple, got, tc.Conf)
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
// absence marks and cross-relation sharing organically). A pending σ/π
// result is read in place: its masses must equal, bit for bit, those of the
// same result once built, and reading it must build nothing — for σ, π, σπ,
// a σ whose condition reads two placeholders (so it composes) and a π that
// drops the condition's attribute (so carriers appear). Conf on the pending
// result equals its tuple's PossibleP entry bit for bit.
func TestNativeConfidenceOnArenaResults(t *testing.T) {
	pendingCases := []struct {
		name string
		op   func(ar *Arena, rel string, at []string) error
	}{
		{"σ", func(ar *Arena, rel string, at []string) error { return ar.Select("res", rel, Gt(at[0], 0)) }},
		{"π", func(ar *Arena, rel string, at []string) error { return ar.Project("res", rel, at[1]) }},
		{"σπ", func(ar *Arena, rel string, at []string) error {
			return ar.SelectProject("res", rel, Gt(at[0], 0), at[0], at[1])
		}},
		{"σ two placeholders", func(ar *Arena, rel string, at []string) error {
			return ar.Select("res", rel, AttrAttr{A: at[0], Theta: relation.GE, B: at[1]})
		}},
		{"π drops the condition", func(ar *Arena, rel string, at []string) error {
			return ar.SelectProject("res", rel, Gt(at[0], 1), at[1])
		}},
	}
	carriers, twoRef := 0, 0
	for seed := int64(200); seed < 220; seed++ {
		s := RandomConfStore(t, seed)
		rel := s.Relations()[0]
		r := s.Rel(rel)
		snap := s.Snapshot()
		for _, c := range pendingCases {
			label := fmt.Sprintf("seed %d %s", seed, c.name)
			ar := NewArena(snap)
			if err := c.op(ar, rel, r.Attrs); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			carriers += len(ar.Selection("res").Carriers())
			mem := ar.MemUsage()
			pending, err := PossibleMasses(ar, "res")
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			table, err := PossibleP(ar, "res")
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, tc := range table {
				got, err := Conf(ar, "res", tc.Tuple)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if math.Float64bits(got) != math.Float64bits(tc.Conf) {
					t.Fatalf("%s: Conf(%v) = %v on the pending result, PossibleP entry %v", label, tc.Tuple, got, tc.Conf)
				}
			}
			if got := ar.MemUsage(); got != mem {
				t.Fatalf("%s: reading the pending result grew the arena from %d to %d bytes", label, mem, got)
			}
			if c.name == "σ two placeholders" {
				// Only a row whose condition reads two placeholders brings
				// a component into the arena before the result is built.
				ar.EachComp(func(comp *Component) {
					if comp.ID < 0 {
						twoRef++
					}
				})
			}
			if ar.Rel("res") == nil {
				t.Fatalf("%s: building the result failed", label)
			}
			built, err := PossibleMasses(ar, "res")
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameMasses(t, label, pending, built)
		}
		ar := NewArena(snap)
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
	if carriers == 0 || twoRef == 0 {
		t.Fatalf("the seeds gave %d carriers and %d rows reading two placeholders; both shapes must occur", carriers, twoRef)
	}
}

// sameMasses fails unless two pre-fold tables hold the same tuples with
// bit-identical masses.
func sameMasses(t *testing.T, label string, got, want []TupleMasses) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d possible tuples, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		same := CompareTuples(g.Tuple, w.Tuple) == 0 && g.Certain == w.Certain && len(g.Masses) == len(w.Masses)
		for k := 0; same && k < len(g.Masses); k++ {
			same = math.Float64bits(g.Masses[k]) == math.Float64bits(w.Masses[k])
		}
		if !same {
			t.Fatalf("%s: tuple %d masses %+v, want %+v", label, i, g, w)
		}
	}
}

// TestZeroProbabilityWorldCountsOnce: a tuple enters its group's mass list
// once, however many local worlds of the group list it, and a local world
// of probability 0 is no exception. The component's worlds (1, 7) p 0,
// (5, 1) p 0.3 and (5, 5) p 0.7 put tuple (1) in the group twice, and its
// confidence is exactly 0.3.
func TestZeroProbabilityWorldCountsOnce(t *testing.T) {
	s, err := ImportState(&StoreState{
		Rels: []*RelState{{Name: "T", Attrs: []string{"A"}, Cols: [][]int32{{Placeholder, Placeholder}}}},
		Comps: []*CompState{{ID: 1, Fields: []FieldID{{Rel: 0, Row: 0}, {Rel: 0, Row: 1}}, Rows: []CompRow{
			{Vals: []int32{1, 7}, P: 0},
			{Vals: []int32{5, 1}, P: 0.3},
			{Vals: []int32{5, 5}, P: 0.7},
		}}},
		NextCID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tms, err := PossibleMasses(s, "T")
	if err != nil {
		t.Fatal(err)
	}
	confs, err := PossibleP(s, "T")
	if err != nil {
		t.Fatal(err)
	}
	if len(tms) != 3 || len(confs) != 3 || tms[0].Tuple[0] != 1 {
		t.Fatalf("possible tuples %v, want (1), (5), (7)", tms)
	}
	for _, tm := range tms {
		if len(tm.Masses) != 1 {
			t.Fatalf("tuple %v has masses %v, want one per group", tm.Tuple, tm.Masses)
		}
	}
	if got := confs[0].Conf; math.Float64bits(got) != math.Float64bits(0.3) {
		t.Fatalf("tuple (1) has confidence %v (bits %x), want 0.3", got, math.Float64bits(got))
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

// TestRestrictionAgainstOracle: the tuple-level view restricts components of
// at most 16 local worlds by a linear scan and longer ones through a tuple
// table, with copies absent in some local worlds. On pending σ/π results
// over such components the confidence table matches the WSD oracle, and its
// masses equal, bit for bit, those of the same result once built.
func TestRestrictionAgainstOracle(t *testing.T) {
	cases := []struct {
		name string
		op   func(ar *Arena) error
	}{
		{"π one attribute", func(ar *Arena) error { return ar.Project("res", "T", "A1") }},
		{"π two attributes", func(ar *Arena) error { return ar.Project("res", "T", "A0", "A2") }},
		{"σ", func(ar *Arena) error { return ar.Select("res", "T", Gt("A0", 0)) }},
		{"σπ drops the condition", func(ar *Arena) error { return ar.SelectProject("res", "T", Gt("A1", 0), "A2") }},
		{"σ two placeholders", func(ar *Arena) error {
			return ar.Select("res", "T", AttrAttr{A: "A0", Theta: relation.LE, B: "A2"})
		}},
	}
	short, long, absent := 0, 0, 0
	for seed := int64(0); seed < 10; seed++ {
		s := RandomWideStore(t, seed)
		s.EachComp(func(c *Component) {
			if len(c.Rows) > 16 {
				long++
			} else {
				short++
			}
			for _, row := range c.Rows {
				if row.Absent.Any() {
					absent++
				}
			}
		})
		snap := s.Snapshot()
		for _, c := range cases {
			label := fmt.Sprintf("seed %d %s", seed, c.name)
			ar := NewArena(snap)
			if err := c.op(ar); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			pending, err := PossibleMasses(ar, "res")
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			native, err := PossibleP(ar, "res")
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if ar.Rel("res").NumRows() == 0 {
				continue
			}
			built, err := PossibleMasses(ar, "res")
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameMasses(t, label, pending, built)
			w, err := bridge.ToWSDOf(ar, "res")
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			oracle, err := confidence.PossibleP(w, "res")
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			diffPossibleP(t, label, native, oracle)
		}
	}
	if short == 0 || long == 0 || absent == 0 {
		t.Fatalf("the seeds gave %d components of ≤ 16 local worlds, %d longer ones and %d local worlds with an absent field; want all three", short, long, absent)
	}
}
