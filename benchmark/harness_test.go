package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/server/client"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		beyond int
	}{
		{200, 0.50, 100, 100},
		{200, 0.95, 190, 10}, // exactly the ten samples a reported tail needs
		{199, 0.95, 190, 9},  // one sample fewer and p95 is no longer supported
		{200, 0.99, 198, 2},
		{1, 0.95, 1, 0},
		{20, 1.0, 20, 0},
	} {
		got, beyond := percentile(sorted[:tc.n], tc.p)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("percentile(n=%d, p=%g) = %g with %d beyond, want %g with %d", tc.n, tc.p, got, beyond, tc.want, tc.beyond)
		}
	}
	if v, beyond := percentile(nil, 0.95); v != 0 || beyond != 0 {
		t.Errorf("percentile of no samples = %g, %d", v, beyond)
	}
}

func TestSummarizeTailSupport(t *testing.T) {
	ms := make([]float64, 220)
	for i := range ms {
		ms[len(ms)-1-i] = float64(i) // descending: summarize must sort a copy
	}
	s := summarize(ms)
	if s.N != 220 || s.P50 != 109 || s.P95 != 208 || s.BeyondP95 != 11 || s.Max != 219 {
		t.Errorf("summarize = %+v", s)
	}
	if ms[0] != 219 {
		t.Errorf("summarize reordered its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median of four = %g", got)
	}
}

func TestSelfTimeNestedAndSiblings(t *testing.T) {
	spans := []span{
		{Request: 1, ID: 1, Parent: 0, Layer: "request", Name: "op", StartNS: 0, EndNS: 100},
		{Request: 1, ID: 2, Parent: 1, Layer: "engine", Name: "run", StartNS: 10, EndNS: 40},
		{Request: 1, ID: 3, Parent: 2, Layer: "engine", Name: "inner", StartNS: 15, EndNS: 25}, // nested
		{Request: 1, ID: 4, Parent: 1, Layer: "shard", Name: "fanout", StartNS: 50, EndNS: 90},
		// Two workers side by side under the fan-out, overlapping 60..70.
		{Request: 1, ID: 5, Parent: 4, Layer: "shard", Name: "worker", StartNS: 50, EndNS: 70},
		{Request: 1, ID: 6, Parent: 4, Layer: "shard", Name: "worker", StartNS: 60, EndNS: 85},
		// A child that outlives its parent is clipped to it.
		{Request: 1, ID: 7, Parent: 6, Layer: "engine", Name: "view", StartNS: 80, EndNS: 95},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - 30 - 40, // siblings 2 and 4
		2: 30 - 10,
		3: 10,
		4: 40 - 35, // union of 50..70 and 60..85
		5: 20,
		6: 25 - 5, // child 7 clipped to 80..85
		7: 15,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	rows := layerTable(spans)
	var worker layerRow
	for _, r := range rows {
		if r.Layer == "shard" && r.Name == "worker" {
			worker = r
		}
	}
	if worker.Calls != 2 || worker.SelfNS != 40 || worker.BusyNS != 45 {
		t.Errorf("layer row of the workers = %+v", worker)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin(1, 0, "engine", "run")) // must not panic
	on := newTracer()
	id := on.begin(1, 0, "engine", "run")
	on.end(id)
	if len(on.spans) != 1 || on.spans[0].EndNS < on.spans[0].StartNS {
		t.Errorf("spans = %+v", on.spans)
	}
}

func TestCSVAndStreamsAreSeeded(t *testing.T) {
	gen := func(seed int64) []byte {
		var buf bytes.Buffer
		if _, err := writeCensusCSV(&buf, 2000, 0.01, seed); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a, b) {
		t.Errorf("the same seed gave different CSV bytes")
	}
	if bytes.Equal(a, c) {
		t.Errorf("different seeds gave the same CSV bytes")
	}
	if !bytes.Contains(a, []byte("|")) {
		t.Errorf("no or-set in 2000 rows at density 0.01")
	}
	picks := func(seed int64, conn int) []int {
		st := newStream(seed, conn)
		out := make([]int, 60)
		for i := range out {
			out[i] = st.next(5)
		}
		return out
	}
	same := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(picks(7, 0), picks(7, 0)) {
		t.Errorf("the same seed and connection gave different request orders")
	}
	if same(picks(7, 0), picks(8, 0)) || same(picks(7, 0), picks(7, 1)) {
		t.Errorf("another seed or connection gave the same request order")
	}
	// Shuffled rounds: every five picks run each statement once.
	order := picks(7, 0)
	for r := 0; r < len(order); r += 5 {
		seen := make(map[int]bool)
		for _, p := range order[r : r+5] {
			seen[p] = true
		}
		if len(seen) != 5 {
			t.Errorf("round %v does not run every statement once", order[r:r+5])
		}
	}
}

func TestFingerprintIgnoresRowOrderOnly(t *testing.T) {
	rows := [][]relation.Value{
		{relation.Int(1), relation.Int(2)},
		{relation.Int(2), relation.Int(1)},
		{relation.Placeholder(), relation.Int(0)},
		{relation.Int(1), relation.Int(2)}, // a duplicate row must count
	}
	confs := []float64{0.25, 0.5, 1, 0.25}
	fold := func(order []int, confs []float64) fingerprint {
		var fp fingerprint
		for _, i := range order {
			fp.add(rows[i], confs[i], true)
		}
		return fp
	}
	base := fold([]int{0, 1, 2, 3}, confs)
	perm := rand.New(rand.NewSource(1)).Perm(len(rows))
	if got := fold(perm, confs); got != base {
		t.Errorf("fingerprint depends on row order: %v vs %v", got, base)
	}
	if got := fold([]int{0, 1, 2}, confs); got == base {
		t.Errorf("dropping a duplicate row left the fingerprint unchanged")
	}
	// One ulp of one confidence must show.
	bumped := append([]float64(nil), confs...)
	bumped[1] = 0.5000000000000001
	if got := fold([]int{0, 1, 2, 3}, bumped); got == base {
		t.Errorf("a one-ulp confidence change left the fingerprint unchanged")
	}
	// Swapping two columns of a row is a different row.
	var x, y fingerprint
	x.add(rows[0], 0, false)
	y.add(rows[1], 0, false)
	if x == y {
		t.Errorf("(1,2) and (2,1) hash alike")
	}
}

// TestBenchmarkJSONMatchesHarness keeps the declaration at the repository
// root and the harness from drifting apart: same workloads and reasons, same
// metric names, units, directions and bounds.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the harness", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %+v, harness {%s %s}", i, d, w.name, w.why)
		}
	}
	if len(decl.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d in the harness", len(decl.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		if want := (metric{m.name, m.unit, better(m.higher), m.bound}); decl.EndToEnd[i] != want {
			t.Errorf("end-to-end metric %d: declared %+v, harness %+v", i, decl.EndToEnd[i], want)
		}
	}
	if len(decl.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d in the harness", len(decl.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if want := (metric{m.name, m.unit, better(m.higher), 0}); decl.PerLayer[i] != want {
			t.Errorf("per-layer metric %d: declared %+v, harness %+v", i, decl.PerLayer[i], want)
		}
	}
}

func TestCheckCatalog(t *testing.T) {
	rStats := engine.Stats{NumComp: 3, NumCompGT1: 1, CSize: 9, RSize: 100}
	r := client.RelInfo{Name: "R", Stats: rStats}
	other := func(name string) bool { return name == "q2_1" }
	for _, tc := range []struct {
		name string
		cat  []client.RelInfo
		ok   bool
	}{
		{"only R", []client.RelInfo{r}, true},
		{"another session's relation in flight", []client.RelInfo{r, {Name: "q2_1"}}, true},
		{"own relation left behind", []client.RelInfo{r, {Name: "q2_0"}}, false},
		{"R changed", []client.RelInfo{{Name: "R", Stats: engine.Stats{RSize: 99}}}, false},
		{"R gone", nil, false},
	} {
		err := checkCatalog(tc.cat, &relWatch{stats: rStats}, other)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkCatalog = %v", tc.name, err)
		}
		var wa *wrongAnswer
		if err != nil && !errors.As(err, &wa) {
			t.Errorf("%s: %v is not a wrong-answer error", tc.name, err)
		}
	}
}

func TestRelWatchFollowsMergesUntilSettled(t *testing.T) {
	ref := engine.Stats{NumComp: 10, NumCompGT1: 1, CSize: 30, RSize: 100}
	merged := engine.Stats{NumComp: 9, NumCompGT1: 2, CSize: 34, RSize: 100}
	w := &relWatch{stats: ref, settle: time.Now().Add(time.Hour)}
	if err := w.observe(merged); err != nil {
		t.Errorf("a merge before the settle time: %v", err)
	}
	if err := w.observe(ref); err == nil {
		t.Errorf("components came apart again and the watch accepted it")
	}
	if err := w.observe(engine.Stats{NumComp: 9, NumCompGT1: 2, CSize: 34, RSize: 99}); err == nil {
		t.Errorf("a lost row passed")
	}
	w.settle = time.Time{}
	if err := w.observe(engine.Stats{NumComp: 8, NumCompGT1: 3, CSize: 38, RSize: 100}); err == nil {
		t.Errorf("a merge after the settle time passed")
	}
	if err := w.observe(merged); err != nil {
		t.Errorf("unchanged statistics after the settle time: %v", err)
	}
}

// TestSmoke boots the real maybmsd on a 5k-row store and runs every workload
// for a second, end to end and traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots maybmsd; skipped with -short")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	bin, err := buildServer(root, work)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, bin: bin, work: work, seed: 11, warmup: 200 * time.Millisecond, window: time.Second, conns: connections()}
	for _, w := range workloads {
		w.rows = 5000
		t.Run(w.name, func(t *testing.T) {
			res, err := runE2E(e, &w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("end to end: correct=%v failed=%d attempted=%d: %s", res.Correct, res.Failed, res.Attempted, res.Wrong)
			}
			for _, d := range e2eMetrics {
				if d.get(res) <= 0 {
					t.Errorf("end-to-end metric %s = %g", d.name, d.get(res))
				}
			}
			if w.durable && (res.Restart == nil || res.Restart.ReplayedRecords != 2+4*(res.WarmupOps+res.Attempted)) {
				t.Errorf("restart check: %+v after %d cycles", res.Restart, res.WarmupOps+res.Attempted)
			}
			tres, spans, err := runTrace(e, &w)
			if err != nil {
				t.Fatal(err)
			}
			if !tres.Correct || len(spans) == 0 {
				t.Errorf("traced: correct=%v, %d spans: %s", tres.Correct, len(spans), tres.Wrong)
			}
			for _, d := range layerMetrics {
				if _, ok := tres.Metrics[d.name]; !ok {
					t.Errorf("traced run did not report %s", d.name)
				}
			}
			if cov := tres.Metrics["trace.coverage"]; cov < 0.5 || cov > 1 {
				t.Errorf("trace.coverage = %g", cov)
			}
		})
	}
	live.Lock()
	n := len(live.procs)
	live.Unlock()
	if n != 0 {
		t.Errorf("%d maybmsd processes still running after the runs", n)
	}
}
