package main

import (
	"errors"
	"fmt"
	"regexp"
	"sync"
	"time"

	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/server"
	"maybms/internal/server/client"
)

// checkEvery is the verification sample of the timed window: every 50th
// operation of a connection has its answer fingerprinted and compared.
// Checked operations count towards qps but stay out of the latency samples,
// because hashing the rows slows the client's drain.
const checkEvery = 50

// connResult is what one connection's closed loop measured in the timed
// window.
type connResult struct {
	attempted, ok int
	checked       int
	failed        map[string]int // by wire error code, or "transport"
	latMs         []float64
	busy          time.Duration // first timed start → last timed end
	// warmOps counts the untimed warm-up operations (all of them checked).
	warmOps int
	// wrong is the first wrong answer seen, if any; it fails the run.
	wrong error
}

// failureKey names the bucket ops_failed counts an error under.
func failureKey(err error) string {
	var werr *server.WireError
	if errors.As(err, &werr) {
		return fmt.Sprintf("wire_code_%d", werr.Code)
	}
	return "transport"
}

// wrongAnswer marks an error as a verification failure rather than a failed
// operation.
type wrongAnswer struct{ msg string }

func (e *wrongAnswer) Error() string { return e.msg }

func wrongf(format string, args ...any) error {
	return &wrongAnswer{msg: fmt.Sprintf(format, args...)}
}

// op runs one operation of a connection; check asks it to verify the answer.
type op func(check bool) error

// closedLoop drives one connection: operations back to back, each waiting
// for its reply. Until warmEnd every operation is checked and none is timed;
// from then until end operations are timed. A failed operation is counted by
// its error code and leaves no latency sample; a wrong answer fails the run.
func closedLoop(next op, warmEnd, end time.Time) connResult {
	res := connResult{failed: make(map[string]int)}
	// record files err and reports whether the operation was answered and
	// whether the connection can go on.
	record := func(err error, prefix string) (answered, alive bool) {
		var wa *wrongAnswer
		switch {
		case err == nil:
			return true, true
		case errors.As(err, &wa):
			if res.wrong == nil {
				res.wrong = err
			}
			return true, true
		}
		key := failureKey(err)
		res.failed[prefix+key]++
		// A broken connection cannot carry further requests.
		return false, key != "transport"
	}
	for time.Now().Before(warmEnd) {
		res.warmOps++
		if _, alive := record(next(true), "warmup_"); !alive {
			return res
		}
	}
	var first, last time.Time
	for i := 0; ; i++ {
		start := time.Now()
		if !start.Before(end) {
			break
		}
		if first.IsZero() {
			first = start
		}
		check := i%checkEvery == checkEvery-1
		err := next(check)
		last = time.Now()
		res.attempted++
		answered, alive := record(err, "")
		if !alive {
			break
		}
		if !answered {
			continue
		}
		res.ok++
		if check {
			res.checked++
		} else {
			res.latMs = append(res.latMs, float64(last.Sub(start))/float64(time.Millisecond))
		}
	}
	res.busy = last.Sub(first)
	return res
}

// clientOp prepares connection conn's statements and returns its operation.
// pick chooses the next statement of a read workload among n.
func clientOp(c *client.Conn, w *workload, conn int, pick func(n int) int, exp *expected) (op, error) {
	if w.stmts == nil {
		q1, err := c.Prepare(census.SQL["Q1"])
		if err != nil {
			return nil, err
		}
		return q5Op(c, conn, q1, exp), nil
	}
	stmts := make([]*client.Stmt, len(w.stmts))
	for i, text := range w.stmts {
		var err error
		if stmts[i], err = c.Prepare(text); err != nil {
			return nil, fmt.Errorf("preparing %q: %w", text, err)
		}
	}
	return readOp(stmts, pick, exp), nil
}

// readOp is the operation of a read workload: the stream picks a prepared
// statement, the connection executes it and drains every row.
func readOp(stmts []*client.Stmt, pick func(n int) int, exp *expected) op {
	return func(check bool) error {
		st := stmts[pick(len(stmts))]
		rows, err := st.Query()
		if err != nil {
			return err
		}
		return verifyRows(rows, check, "served: "+st.Text(), exp.stmts[st.Text()])
	}
}

var otherSessionRel = regexp.MustCompile(`^q[23]_\d+$`)

// q5Op is one q5_session cycle on connection c: MATERIALIZE Q2 and Q3, the
// Q5 join over them, Q1 against R, DROP both. The catalog assertion after
// the cycle runs on every cycle; the answers are fingerprinted when check is
// set.
func q5Op(c *client.Conn, conn int, q1 *client.Stmt, exp *expected) op {
	q2, q3, join := q5Names(conn)
	cleanup := func() {
		c.DropRelation(q2) //nolint:errcheck // best effort after a failed cycle
		c.DropRelation(q3) //nolint:errcheck
	}
	cycle := func(check bool) error {
		s2, err := c.Materialize(q2, census.SQL["Q2"])
		if err != nil {
			return err
		}
		s3, err := c.Materialize(q3, census.SQL["Q3"])
		if err != nil {
			return err
		}
		if s2 != exp.q2Stats || s3 != exp.q3Stats {
			return wrongf("MATERIALIZE stats %+v, %+v; in-process reference %+v, %+v", s2, s3, exp.q2Stats, exp.q3Stats)
		}
		rows, err := c.Query(join)
		if err != nil {
			return err
		}
		if err := verifyRows(rows, check, "served: "+join, exp.q5); err != nil {
			return err
		}
		if rows, err = q1.Query(); err != nil {
			return err
		}
		if err := verifyRows(rows, check, "served: "+q1.Text(), exp.stmts[q1.Text()]); err != nil {
			return err
		}
		if err := c.DropRelation(q2); err != nil {
			return err
		}
		return c.DropRelation(q3)
	}
	return func(check bool) error {
		if err := cycle(check); err != nil {
			cleanup()
			return err
		}
		cat, err := c.Catalog()
		if err != nil {
			return err
		}
		return checkCatalog(cat, exp.r, func(name string) bool {
			return name != q2 && name != q3 && otherSessionRel.MatchString(name)
		})
	}
}

// relWatch holds what R's representation statistics must be. They start as
// the in-process reference's. A MATERIALIZE whose selection composes two of
// R's components leaves them merged in R after the DROP (README, Finding
// (d)): same rows and world-set, fewer and larger components. The first
// cycles do that and later ones change nothing, so until the warm-up ends the
// watch follows such a move; from then on the statistics must stand still.
type relWatch struct {
	mu     sync.Mutex
	stats  engine.Stats
	settle time.Time // the statistics may still move before this
}

func (w *relWatch) observe(got engine.Stats) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if got == w.stats {
		return nil
	}
	if time.Now().Before(w.settle) && got.RSize == w.stats.RSize && got.NumComp <= w.stats.NumComp {
		w.stats = got
		return nil
	}
	return wrongf("catalog: R has stats %+v, expected %+v", got, w.stats)
}

// checkCatalog asserts the catalog is {R} with the statistics the watch
// expects, plus only relations allowed says may be there (another session's
// cycle in flight).
func checkCatalog(cat []client.RelInfo, r *relWatch, allowed func(name string) bool) error {
	seenR := false
	for _, ri := range cat {
		switch {
		case ri.Name == "R":
			seenR = true
			if err := r.observe(ri.Stats); err != nil {
				return err
			}
		case !allowed(ri.Name):
			return wrongf("catalog: unexpected relation %q", ri.Name)
		}
	}
	if !seenR {
		return wrongf("catalog: R is gone")
	}
	return nil
}

// loadResult is the timed window of one workload run, all connections
// together.
type loadResult struct {
	conns     []connResult
	attempted int
	ok        int
	checked   int
	warmOps   int
	failed    map[string]int
	latMs     []float64
	qps       float64
	wrong     error
}

func (r *loadResult) failedTotal() int {
	n := 0
	for _, c := range r.failed {
		n += c
	}
	return n
}

// drive runs the closed loop on every connection at once and merges the
// results. Throughput is the sum of the connections' own rates, each over
// the span from its first timed start to its last timed end.
func drive(ops []op, warmEnd, end time.Time) loadResult {
	out := loadResult{conns: make([]connResult, len(ops)), failed: make(map[string]int)}
	var wg sync.WaitGroup
	for i, next := range ops {
		wg.Add(1)
		go func(i int, next op) {
			defer wg.Done()
			out.conns[i] = closedLoop(next, warmEnd, end)
		}(i, next)
	}
	wg.Wait()
	for _, c := range out.conns {
		out.attempted += c.attempted
		out.ok += c.ok
		out.checked += c.checked
		out.warmOps += c.warmOps
		out.latMs = append(out.latMs, c.latMs...)
		for k, n := range c.failed {
			out.failed[k] += n
		}
		if c.busy > 0 {
			out.qps += float64(c.ok) / c.busy.Seconds()
		}
		if out.wrong == nil {
			out.wrong = c.wrong
		}
	}
	return out
}
