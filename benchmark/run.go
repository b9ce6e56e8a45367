package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"maybms/internal/census"
	"maybms/internal/server/client"
)

// setupBoots is how many times a run boots maybmsd to time setup_s; the
// metric is the median, and the last boot serves the run.
const setupBoots = 5

// env is what a run needs from the command line.
type env struct {
	root    string // the checkout
	bin     string // the maybmsd binary
	work    string // scratch directory of this process, removed at exit
	seed    int64
	warmup  time.Duration
	window  time.Duration
	conns   int
	verbose bool
}

// inRunDir runs f with a scratch directory of its own under e.work and
// removes it afterwards: a repeated run must not boot on the data directory
// the previous run left, and the CSV files add up.
func (e *env) inRunDir(name string, f func(*env) error) error {
	dir, err := os.MkdirTemp(e.work, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	run := *e
	run.work = dir
	return f(&run)
}

// connections is the load model's client count: min(nproc, 2).
func connections() int { return min(runtime.NumCPU(), 2) }

// e2eResult is one end-to-end run of one workload.
type e2eResult struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	ServerArgs  []string       `json:"maybmsd_args"`
	FlushPolicy string         `json:"flush_policy"`
	Rows        int            `json:"rows"`
	OrSets      int            `json:"or_sets"`
	QPS         float64        `json:"qps"`
	Latency     latencySummary `json:"latency_ms"`
	SetupS      float64        `json:"setup_s"`
	SetupAllS   []float64      `json:"setup_all_s"`
	PeakRSSMiB  float64        `json:"peak_rss_mb"`
	PingUS      float64        `json:"ping_us"`
	Attempted   int            `json:"ops_attempted"`
	Failed      int            `json:"ops_failed"`
	FailedBy    map[string]int `json:"ops_failed_by_code"`
	Checked     int            `json:"answers_checked"`
	WarmupOps   int            `json:"warmup_ops"`
	Restart     *restartResult `json:"restart,omitempty"`
	// RMoved describes how R's statistics settled away from the reference
	// during warm-up, if they did (README, Finding (d)).
	RMoved  string  `json:"r_stats_moved,omitempty"`
	Correct bool    `json:"correct"`
	Wrong   string  `json:"wrong,omitempty"`
	WindowS float64 `json:"window_s"`
}

func flushPolicy(w *workload) string {
	if w.durable {
		return "WAL fsync per append (maybmsd default)"
	}
	return "none (in memory)"
}

// writeCSV generates the workload's input file.
func writeCSV(w *workload, path string, seed int64) (orsets int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	orsets, err = writeCensusCSV(f, w.rows, w.density, seed)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return orsets, err
}

// runE2E is the black-box half: generate the CSV, compute the reference
// answers, boot the real maybmsd, drive it over the wire, verify.
func runE2E(e *env, w *workload) (*e2eResult, error) {
	csvPath := filepath.Join(e.work, w.name+".csv")
	orsets, err := writeCSV(w, csvPath, e.seed)
	if err != nil {
		return nil, err
	}
	exp, err := computeExpected(w, csvPath)
	if err != nil {
		return nil, fmt.Errorf("computing reference answers: %w", err)
	}
	// The reference store is garbage now; return its memory before the
	// server and the load share the box.
	runtime.GC()

	probe := census.SQL["Q1"]
	if w.stmts != nil {
		probe = w.stmts[0]
	}
	res := &e2eResult{Workload: w.name, Seed: e.seed, FlushPolicy: flushPolicy(w), Rows: w.rows, OrSets: orsets}
	var srv *serverProc
	var dataDir string
	for i := 0; i < setupBoots; i++ {
		dataDir = filepath.Join(e.work, fmt.Sprintf("%s-data-%d", w.name, i))
		args := w.serverArgs(csvPath, dataDir)
		p, c, setup, err := bootAndPrepare(e.bin, args, probe)
		if err != nil {
			return nil, err
		}
		c.Close()
		res.SetupAllS = append(res.SetupAllS, setup.Seconds())
		res.ServerArgs = args
		if i < setupBoots-1 {
			p.kill()
			continue
		}
		srv = p
	}
	defer func() { srv.kill() }()
	res.SetupS = median(res.SetupAllS)

	conns := make([]*client.Conn, e.conns)
	ops := make([]op, e.conns)
	for i := range conns {
		c, err := client.Dial(srv.addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		conns[i] = c
		if ops[i], err = clientOp(c, w, i, newStream(e.seed, i).next, exp); err != nil {
			return nil, err
		}
	}

	warmEnd := time.Now().Add(e.warmup)
	exp.r.settle = warmEnd
	rRef := exp.r.stats
	load := drive(ops, warmEnd, warmEnd.Add(e.window))
	if exp.r.stats != rRef {
		res.RMoved = fmt.Sprintf("reference %+v, after the first cycles %+v", rRef, exp.r.stats)
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.QPS = load.qps
	res.Latency = summarize(load.latMs)
	res.PeakRSSMiB = rss
	res.Attempted = load.attempted
	res.Failed = load.failedTotal()
	res.FailedBy = load.failed
	res.Checked = load.checked
	res.WarmupOps = load.warmOps
	res.WindowS = e.window.Seconds()
	res.Correct = load.wrong == nil
	if load.wrong != nil {
		res.Wrong = load.wrong.Error()
	}
	if res.Failed > 0 {
		res.Wrong = strings.TrimSpace(res.Wrong + "\nserver log tail:\n" + tail(srv.logText(), 15))
	} else {
		// Ungated: the empty-frame round trip to the real binary, to set
		// beside server.ping_us of the traced run's in-process server.
		if res.PingUS, err = pingUS(conns[0]); err != nil {
			return nil, err
		}
	}

	if w.durable {
		for _, c := range conns {
			c.Close()
		}
		srv.kill()
		cycles := load.warmOps + load.attempted
		rr, p, err := restartCheck(e.bin, w.serverArgs(csvPath, dataDir), exp, cycles, res.Failed == 0)
		if p != nil {
			srv = p
		}
		if err != nil {
			var wa *wrongAnswer
			if !errors.As(err, &wa) {
				return nil, err
			}
			res.Correct = false
			res.Wrong = strings.TrimSpace(res.Wrong + "\n" + err.Error())
		}
		res.Restart = rr
	}
	return res, nil
}

// pingRoundTrips is how many Conn.Ping calls a ping figure averages.
const pingRoundTrips = 200

// pingUS is the mean Conn.Ping round trip in microseconds.
func pingUS(c *client.Conn) (float64, error) {
	start := time.Now()
	for i := 0; i < pingRoundTrips; i++ {
		if err := c.Ping(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / pingRoundTrips, nil
}

func tail(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// restartResult is the durability check of q5_session.
type restartResult struct {
	RestartS        float64 `json:"restart_s"`
	ReplayedRecords int     `json:"replayed_wal_records"`
}

var replayedRE = regexp.MustCompile(`(\d+) (?:WAL )?records`)

// restartCheck boots maybmsd again on the data directory of a server that
// was just killed with SIGKILL, and asserts what the log must have kept:
// every acknowledged commit replays (the record count is exact when no
// operation failed), the catalog is {R} with unchanged statistics — so every
// acknowledged DROP stayed dropped — and Q1 answers as before. It proves
// replay from the bytes on disk, not fsync honesty: the page cache survives
// kill -9.
func restartCheck(bin string, args []string, exp *expected, cycles int, exact bool) (*restartResult, *serverProc, error) {
	p, c, boot, err := bootAndPrepare(bin, args, census.SQL["Q1"])
	if err != nil {
		return nil, nil, fmt.Errorf("restarting on the killed server's -data: %w", err)
	}
	defer c.Close()
	rr := &restartResult{RestartS: boot.Seconds(), ReplayedRecords: -1}
	for _, line := range strings.Split(p.logText(), "\n") {
		if !strings.Contains(line, "restored ") {
			continue
		}
		if m := replayedRE.FindStringSubmatch(line); m != nil {
			rr.ReplayedRecords, _ = strconv.Atoi(m[1])
		}
	}
	// LOAD CSV + CHASE at boot, then 2 MATERIALIZE + 2 DROP per cycle.
	if want := 2 + 4*cycles; exact && rr.ReplayedRecords != want {
		return rr, p, wrongf("restart replayed %d WAL records, %d cycles acknowledged %d", rr.ReplayedRecords, cycles, want)
	}
	cat, err := c.Catalog()
	if err != nil {
		return rr, p, err
	}
	if err := checkCatalog(cat, exp.r, func(string) bool { return false }); err != nil {
		return rr, p, fmt.Errorf("after kill -9 and restart: %w", err)
	}
	rows, err := c.Query(census.SQL["Q1"])
	if err != nil {
		return rr, p, err
	}
	var fp fingerprint
	if _, err := drain(rows, &fp); err != nil {
		return rr, p, err
	}
	if want := exp.stmts[census.SQL["Q1"]]; fp != want {
		return rr, p, wrongf("after kill -9 and restart Q1 answers %v, reference %v", fp, want)
	}
	return rr, p, nil
}
