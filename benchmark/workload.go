package main

import (
	"fmt"
	"math/rand"
	"strings"

	"maybms/internal/census"
)

// A workload is one traffic mix against one store. Read workloads run
// prepared statements in seeded random order; q5_session runs the paper's Q5
// flow as a write-and-read session.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json carries
	// the same text).
	why     string
	rows    int
	density float64
	// shards is always pinned on the maybmsd command line: the default (0)
	// would decide from the host's core count and make runs on different
	// boxes execute different code.
	shards  int
	durable bool
	// stmts are the prepared statements of a read workload; nil for the
	// q5_session cycle.
	stmts []string
}

var workloads = []workload{
	{
		name: "select_mix",
		why:  "small results (40-2k rows) of Figure 29 Q1-Q4,Q6 on one shard: sql bind + engine snapshot/arena/operator sweeps dominate, wire and shards idle",
		rows: 100000, density: 0.001, shards: 1,
		stmts: []string{census.SQL["Q1"], census.SQL["Q2"], census.SQL["Q3"], census.SQL["Q4"], census.SQL["Q6"]},
	},
	{
		name: "conf_fold",
		why:  "POSSIBLE/CERTAIN projections folding ~1e5 qualifying rows to 59-295 answers on two shards: the only read workload that runs shard fan-out, tuple-level view, mass fold and merge; wire idle",
		rows: 250000, density: 0.001, shards: 2,
		// The per-shard mass tables of these statements total under 1024
		// rows; at or above that the coordinator's merge guard panics over
		// the wire (README, Findings (a)).
		stmts: []string{
			"SELECT POSSIBLE POWSTATE FROM R WHERE CITIZEN = 0",
			"SELECT POSSIBLE POWSTATE, MARITAL FROM R WHERE FERTIL > 4",
			"SELECT CERTAIN POWSTATE FROM R WHERE CITIZEN = 0",
		},
	},
	{
		name: "wide_fetch",
		why:  "one SELECT * returning ~24.5k rows x 50 columns in FETCH batches: wire encode, socket writes and client decode dominate, the engine is the minority",
		rows: 100000, density: 0.001, shards: 1,
		stmts: []string{"SELECT * FROM R WHERE CITIZEN = 0"},
	},
	{
		name: "q5_session",
		why:  "durable Q5 session (2 MATERIALIZE, join, Q1, 2 DROP) on two shards: four commits per cycle (WAL fsync, writer lock, O(store) shard resync) with snapshot reads beside them",
		rows: 50000, density: 0.001, shards: 2, durable: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stream is the request order of one connection, from a PRNG seeded with
// seed + connection index. It deals the statements in shuffled rounds — every
// round runs each statement once — so the order is random but the mix is
// exact: the statements cost up to 10x apart, and a mix that drifted with the
// seed would move qps and the median by a few percent on its own.
type stream struct {
	rng   *rand.Rand
	round []int
}

func newStream(seed int64, conn int) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed + int64(conn)))}
}

// next picks among n statements.
func (s *stream) next(n int) int {
	if len(s.round) == 0 {
		s.round = s.rng.Perm(n)
	}
	pick := s.round[0]
	s.round = s.round[1:]
	return pick
}

// q5Names are the relation names connection c materializes in a cycle and
// the Q5 join text over them.
func q5Names(c int) (q2, q3, join string) {
	q2, q3 = fmt.Sprintf("q2_%d", c), fmt.Sprintf("q3_%d", c)
	return q2, q3, strings.NewReplacer("q2", q2, "q3", q3).Replace(census.SQL["Q5"])
}

// serverArgs is the maybmsd command line of the workload, without the
// listen address.
func (w *workload) serverArgs(csvPath, dataDir string) []string {
	args := []string{"-store", csvPath, "-rel", "R", "-shards", fmt.Sprint(w.shards)}
	if w.durable {
		args = append(args, "-data", dataDir)
	}
	return args
}
