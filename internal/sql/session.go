package sql

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/storage"
)

// The session API: a database/sql-shaped surface over the engine store.
// Open wraps a store in a DB; Prepare compiles a statement once (plans are
// cached per DB, keyed by statement text); Query binds ? parameters and
// returns a Rows pull iterator.
//
// Execution is snapshot/arena structured: Stmt.Query loads the DB's
// published view (one atomic pointer to an immutable snapshot and shard
// set), runs the plan's operators on a private Arena, and hands the arena to
// the Rows iterator — so any number of SELECTs run truly in parallel,
// sharing nothing but immutable state, and Rows.Close releases the whole
// result by dropping the arena. Catalog writers all go through commit
// (commit.go): they serialize on the DB's writer lock, commit copy-on-write
// and publish a new view only once the change is logged.

// DB is a session over one engine store. Statement execution takes no lock:
// each Query runs on the published view and an arena of its own. A small
// mutex guards the plan cache; a writer mutex serializes catalog mutations.
// A DB is safe for concurrent use by multiple goroutines.
type DB struct {
	store *engine.Store
	// view is what readers see, the last published state; only writers
	// store it, holding writer.
	view atomic.Pointer[view]
	// mu guards plans and closed.
	mu    sync.Mutex
	plans map[string]*EnginePlan // statement text → compiled template
	// writer serializes catalog writers (commit, Checkpoint,
	// EnableSharding); the store's copy-on-write commit keeps readers of
	// published snapshots safe.
	writer sync.Mutex
	closed bool
	// cacheHits/cacheMisses count plan-cache lookups across the DB's
	// lifetime; the serving layer reports them per session (CacheStats).
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	// dur is the durable directory backing this DB, or nil for an in-memory
	// session. Guarded by writer.
	dur *storage.Dir
}

// CacheStats reports the DB's plan cache: resident compiled plans plus the
// lifetime hit/miss counts of Prepare (a miss is a compile — including
// recompiles forced by catalog changes).
type CacheStats struct {
	Size   int
	Hits   uint64
	Misses uint64
}

// CacheStats returns the DB's plan-cache statistics.
func (db *DB) CacheStats() CacheStats {
	db.mu.Lock()
	size := len(db.plans)
	db.mu.Unlock()
	return CacheStats{Size: size, Hits: db.cacheHits.Load(), Misses: db.cacheMisses.Load()}
}

// Open wraps an engine store in a session and publishes its current state.
// The caller keeps ownership of the store; Close detaches without
// destroying it. Change the store only through the DB from then on: readers
// see what the DB last published, and a failed commit rolls the store back
// to that state.
func Open(store *engine.Store) *DB {
	db := &DB{store: store, plans: make(map[string]*EnginePlan)}
	db.publish(nil) // nothing to re-balance, so it cannot fail
	return db
}

// Close detaches the session and closes the durable directory, if any. The
// underlying store is untouched; prepared statements stop working.
func (db *DB) Close() error {
	db.mu.Lock()
	db.closed = true
	db.plans = nil
	db.mu.Unlock()
	db.writer.Lock()
	defer db.writer.Unlock()
	if db.dur == nil {
		return nil
	}
	err := db.dur.Close()
	db.dur = nil
	return err
}

// check reports a nil or closed DB; callers hold db.mu.
func (db *DB) check() error {
	if db == nil {
		return fmt.Errorf("sql: nil DB")
	}
	if db.closed {
		return fmt.Errorf("sql: DB is closed")
	}
	return nil
}

// maxCachedPlans bounds the DB's plan cache. Ad-hoc queries with inline
// literals each cache under their own text; past the bound an arbitrary
// entry is evicted (statements held by a live Prepared keep their plan
// regardless — eviction only costs a recompile on the next Prepare).
const maxCachedPlans = 512

// Prepare parses and compiles a statement once. The compiled plan is cached
// on the DB keyed by statement text, so preparing the same text twice — or
// executing the returned statement any number of times, with any bound
// parameters — re-plans zero times. Names resolve against a snapshot, so
// preparing never races with catalog writers. EXPLAIN statements are
// rejected; use DB.Explain.
func (db *DB) Prepare(query string) (*Prepared, error) {
	st, err := Parse(query)
	if err != nil {
		return nil, err
	}
	if st.Explain {
		return nil, fmt.Errorf("sql: statement is EXPLAIN; use DB.Explain to render the rewriting")
	}
	snap := db.Snapshot()
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.check(); err != nil {
		return nil, err
	}
	tpl, ok := db.plans[query]
	if ok && tpl.CatalogValid(snap) {
		db.cacheHits.Add(1)
	} else {
		db.cacheMisses.Add(1)
		tpl, err = compileEngine(st, catalogView{snap})
		if err != nil {
			return nil, err
		}
		if len(db.plans) >= maxCachedPlans {
			for k := range db.plans {
				delete(db.plans, k)
				break
			}
		}
		db.plans[query] = tpl
	}
	return &Prepared{db: db, st: st, text: query, tpl: tpl}, nil
}

// Query prepares (or reuses the cached plan of) the statement and executes
// it with the given arguments. Iterate the returned Rows and Close it.
func (db *DB) Query(query string, args ...any) (*Rows, error) {
	return db.QueryContext(context.Background(), query, args...)
}

// QueryContext is Query honoring ctx: cancellation or deadline expiry stops
// the execution at its next engine checkpoint (within ~guardPeriod rows) and
// releases the query's arenas. The returned error chains engine.ErrCanceled
// and the context's own error.
func (db *DB) QueryContext(ctx context.Context, query string, args ...any) (*Rows, error) {
	stmt, err := db.Prepare(query)
	if err != nil {
		return nil, err
	}
	return stmt.QueryContext(ctx, args...)
}

// Explain renders the Section 5 SQL rewriting of the statement's engine
// plan (the EXPLAIN keyword is optional). On a sharded DB it appends the
// execution strategy, what the last re-balance kept and rebuilt, and
// per-shard statistics of the plan's base relations.
func (db *DB) Explain(query string) (string, error) {
	v := db.view.Load()
	db.mu.Lock()
	err := db.check()
	db.mu.Unlock()
	if err != nil {
		return "", err
	}
	out, err := Explain(v.snap, query)
	if err != nil {
		return "", err
	}
	sh := v.shards
	if sh == nil {
		return out, nil
	}
	st, err := Parse(query)
	if err != nil {
		return out, nil
	}
	tpl, err := compileEngine(st, catalogView{v.snap})
	if err != nil {
		return out, nil
	}
	strategy := "authority (plan has join/product/difference; components would entangle across shards)"
	if tpl.distributable() {
		strategy = "morsel-parallel across shards"
	} else if tpl.Mode != ModePlain {
		strategy = "authority store, confidence fold striped over the worker pool"
	}
	last := sh.LastResync()
	out += fmt.Sprintf("-- sharded: %d shards, %d workers, re-balance generation %d: %s; last re-balance %s\n",
		sh.N(), sh.Workers(), last.Generation, strategy, last)
	for _, b := range tpl.bases {
		for _, info := range sh.RelInfo(b.name) {
			out += fmt.Sprintf("--   %s[shard %d]: %d rows, %d components (%d or-sets >1), |C| %d\n",
				b.name, info.Shard, info.Rows, info.Stats.NumComp, info.Stats.NumCompGT1, info.Stats.CSize)
		}
	}
	return out, nil
}

// Relations lists the store's live user relations.
func (db *DB) Relations() []string { return userRelations(db.Snapshot()) }

// userRelations lists a snapshot's live relations but the NUL-prefixed plan
// temporaries.
func userRelations(snap *engine.Snapshot) []string {
	var out []string
	for _, name := range snap.Relations() {
		if len(name) > 0 && name[0] != '\x00' {
			out = append(out, name)
		}
	}
	return out
}

// RelInfo describes one user relation: its attribute names, representation
// statistics and number of uncertain fields.
type RelInfo struct {
	Name         string
	Attrs        []string
	Stats        engine.Stats
	Placeholders int
}

// Catalog describes every live user relation, all read from one published
// state: a commit landing meanwhile shows up in the next call whole, never
// in part.
func (db *DB) Catalog() []RelInfo {
	snap := db.Snapshot()
	names := userRelations(snap)
	out := make([]RelInfo, len(names))
	for i, name := range names {
		out[i] = RelInfo{
			Name:         name,
			Attrs:        append([]string(nil), snap.Rel(name).Attrs...),
			Stats:        snap.Stats(name),
			Placeholders: snap.TotalPlaceholders(name),
		}
	}
	return out
}

// Stats returns the representation statistics of a relation.
func (db *DB) Stats(rel string) engine.Stats {
	return db.Snapshot().Stats(rel)
}

// Schema returns the attribute names of a relation, or nil if it does not
// exist.
func (db *DB) Schema(rel string) []string {
	r := db.Snapshot().Rel(rel)
	if r == nil {
		return nil
	}
	return append([]string(nil), r.Attrs...)
}

// Placeholders returns the number of uncertain fields of a relation.
func (db *DB) Placeholders(rel string) int {
	return db.Snapshot().TotalPlaceholders(rel)
}

// templateFor loads the published view and returns the statement's compiled
// plan, re-preparing it against the view's snapshot first if a base
// relation was dropped or re-created with a different schema since compile
// time — running a stale plan would return wrongly-labeled data.
func (db *DB) templateFor(e *Prepared) (*view, *EnginePlan, error) {
	v := db.view.Load()
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.check(); err != nil {
		return nil, nil, err
	}
	if e.tpl.CatalogValid(v.snap) {
		db.cacheHits.Add(1)
		return v, e.tpl, nil
	}
	db.cacheMisses.Add(1)
	tpl, err := compileEngine(e.st, catalogView{v.snap})
	if err != nil {
		return nil, nil, fmt.Errorf("sql: re-preparing after catalog change: %w", err)
	}
	e.tpl = tpl
	if db.plans != nil {
		db.plans[e.text] = tpl
	}
	return v, tpl, nil
}

// Prepared is a statement compiled once and executable many times with
// different bound parameters. It is safe for concurrent use.
type Prepared struct {
	db   *DB
	st   *Stmt
	text string
	// tpl is the compiled template; templateFor swaps it under db.mu when
	// the catalog changed since compile time.
	tpl *EnginePlan
}

// Text returns the statement's SQL text.
func (p *Prepared) Text() string { return p.text }

// Columns returns the output attribute names.
func (p *Prepared) Columns() []string {
	p.db.mu.Lock()
	defer p.db.mu.Unlock()
	return p.tpl.OutAttrs
}

// NumParams returns the number of ? placeholders the statement binds.
func (p *Prepared) NumParams() int { return p.st.NumParams }

// Close releases the statement. The DB's plan cache keeps the compiled
// plan, so closing and re-preparing stays cheap.
func (p *Prepared) Close() error { return nil }

// Query executes the statement with the given arguments (int and string
// forms, or relation.Value). The result streams through a Rows iterator;
// always Close it — that is what releases the result's arenas.
func (p *Prepared) Query(args ...any) (*Rows, error) {
	return p.QueryContext(context.Background(), args...)
}

// QueryContext is Query honoring ctx at the engine's cancellation
// checkpoints; see DB.QueryContext. The plan runs on a snapshot of the
// session's store, materializing into private arenas — it never takes store
// write access.
func (p *Prepared) QueryContext(ctx context.Context, args ...any) (*Rows, error) {
	vals, err := valuesOf(args)
	if err != nil {
		return nil, err
	}
	if TestHookExec != nil {
		TestHookExec(p.text)
	}
	v, tpl, err := p.db.templateFor(p)
	if err != nil {
		return nil, err
	}
	snaps, workers := v.placement(tpl)
	res, err := execute(ctx, snaps, workers, tpl, vals)
	if err != nil {
		return nil, err
	}
	return &Rows{result: res, idx: -1}, nil
}

// Rows is the pull iterator over one execution's result, in the shape of
// database/sql: Next advances, Scan reads the current row, Close releases
// the execution's result arenas. Plain-query rows are the result's template
// tuples, read in place through each segment's engine.Selection — straight
// from the snapshot's columns when the result was never built — with
// uncertain fields scanning as '?' placeholders into *relation.Value.
// CONF()/POSSIBLE/CERTAIN rows are the across-world answers, decoded
// lazily, with Conf exposing the current confidence.
type Rows struct {
	// result holds the answers: the arena-owned segments of a plain query
	// (private to this execution, or immutable snapshot state, so reading
	// them needs no locks; Close frees them by releasing the arenas — the
	// shared store was never touched) or the across-world tuple list.
	result *Result
	idx    int
	closed bool
	// block is NextBlock's reused output: the column slice headers (and,
	// for a mode result, the gathered columns and confidences) and the
	// carriers of the last block handed out.
	block Block
}

// Columns returns the output attribute names.
func (r *Rows) Columns() []string { return r.result.Attrs }

// Len returns the number of rows the iterator yields in total (0 after
// Close).
func (r *Rows) Len() int {
	if r.closed {
		return 0
	}
	if r.result.Mode != ModePlain {
		return len(r.result.Tuples)
	}
	n := 0
	for _, seg := range r.result.segs {
		n += seg.out.Len()
	}
	return n
}

// Next advances to the next row; it returns false when the rows are
// exhausted or closed.
func (r *Rows) Next() bool {
	if r.closed || r.idx+1 >= r.Len() {
		return false
	}
	r.idx++
	return true
}

// Err returns the error that terminated iteration, if any. Every plan step
// has run and been validated when Query returns, and the rows read
// immutable columns in place, so iteration itself cannot fail and Err is
// always nil today; it exists for the database/sql idiom, and so a future
// streaming executor can surface errors through it.
func (r *Rows) Err() error { return nil }

// Conf returns the confidence of the current row (CONF() and CERTAIN
// answers; 0 for POSSIBLE over non-probabilistic data and plain rows).
func (r *Rows) Conf() float64 {
	if r.closed || r.idx < 0 || r.idx >= len(r.result.Tuples) {
		return 0
	}
	return r.result.Tuples[r.idx].Conf
}

// Result exposes the underlying execution result: representation
// statistics or the across-world tuple list.
func (r *Rows) Result() *Result { return r.result }

// Mode reports what the rows mean: plain template tuples, CONF() answers,
// POSSIBLE or CERTAIN tuples.
func (r *Rows) Mode() Mode { return r.result.Mode }

// MemUsage estimates the bytes this result retains until Close: the result
// arenas of a plain query (built templates, selection vectors and row plans,
// adopted components — not the snapshot columns a selection reads), or the
// across-world answer list of a mode query. The serving layer charges this
// against per-session and global memory budgets; 0 after Close.
func (r *Rows) MemUsage() int64 {
	if r.closed {
		return 0
	}
	var n int64
	for _, seg := range r.result.segs {
		n += seg.arena.MemUsage()
	}
	// Per answer: the values, their slice header, the confidence.
	return n + int64(len(r.result.Tuples))*int64(len(r.result.Attrs)*4+24+8)
}

// Stats returns the representation statistics of the result relation
// (plain queries).
func (r *Rows) Stats() engine.Stats { return r.result.Stats }

// Scan copies the current row into dest: *int, *int32, *int64, *string or
// *relation.Value per column. An uncertain template field scans only into a
// *relation.Value (as the '?' placeholder); ask for POSSIBLE or CONF() to
// decode it. Scan fails cleanly after Close: the rows' arenas are released
// and there is nothing left to read.
func (r *Rows) Scan(dest ...any) error {
	if r.closed {
		return fmt.Errorf("sql: Scan called after Close (the result arena is released)")
	}
	if r.idx < 0 {
		return fmt.Errorf("sql: Scan called before Next")
	}
	if r.idx >= r.Len() {
		return fmt.Errorf("sql: Scan called after the last row")
	}
	cols := r.result.Attrs
	if len(dest) != len(cols) {
		return fmt.Errorf("sql: Scan got %d destinations for %d columns", len(dest), len(cols))
	}
	tuple, out, row := r.current()
	for i, d := range dest {
		var v int32
		if out != nil {
			v = out.At(row, i)
		} else {
			v = tuple[i]
		}
		if pv, ok := d.(*relation.Value); ok {
			if v == engine.Placeholder {
				*pv = relation.Placeholder()
			} else {
				*pv = relation.Int(int64(v))
			}
			continue
		}
		if v == engine.Placeholder {
			return fmt.Errorf("sql: column %s is uncertain in the template; scan into *relation.Value or query with POSSIBLE/CONF()", cols[i])
		}
		switch d := d.(type) {
		case *int64:
			*d = int64(v)
		case *int:
			*d = int(v)
		case *int32:
			*d = v
		case *string:
			*d = strconv.Itoa(int(v))
		default:
			return fmt.Errorf("sql: unsupported Scan destination %T for column %s", d, cols[i])
		}
	}
	return nil
}

// current locates the current row in the engine's encoding: the answer
// tuple of a mode result, or the segment and the row within it of a plain
// one (read in place, column by column, by Scan). The caller has
// bounds-checked idx against Len.
func (r *Rows) current() (tuple []int32, out *engine.Selection, row int) {
	if r.result.Mode != ModePlain {
		return r.result.Tuples[r.idx].Tuple, nil, 0
	}
	out, row = r.segAt(r.idx)
	return nil, out, row
}

// segAt locates plain-result row i: its segment and the row within it (nil
// past the end). Empty segments are skipped.
func (r *Rows) segAt(i int) (*engine.Selection, int) {
	for _, seg := range r.result.segs {
		if i < seg.out.Len() {
			return seg.out, i
		}
		i -= seg.out.Len()
	}
	return nil, 0
}

// Block is a window of rows in the engine's encoding (a '?' field is
// engine.Placeholder), read in place: row i of column c is Cols[c][Sel[i]],
// or Cols[c][i] when Sel is nil, except that the rows listed in Carriers
// read engine.Placeholder in column 0 (engine.Selection.Carriers). Confs
// are the rows' confidences for a CONF()/POSSIBLE/CERTAIN result, nil for a
// plain one.
type Block struct {
	N        int
	Cols     [][]int32
	Sel      []int32
	Carriers []int32
	Confs    []float64
}

// At returns row i, column c of the block.
func (b *Block) At(i, c int) int32 {
	if c == 0 && slices.Contains(b.Carriers, int32(i)) {
		return engine.Placeholder
	}
	if b.Sel != nil {
		return b.Cols[c][b.Sel[i]]
	}
	return b.Cols[c][i]
}

// NextBlock advances past the next N ≤ max rows and returns them. A plain
// block is a window on one segment's selection vector over the columns it
// reads, so it never crosses a segment boundary and may hold fewer than max
// rows; a mode block is gathered from the answer tuples. N is 0 only once
// the rows are exhausted (or closed). The slices stay valid until the next
// NextBlock or Close. Afterwards the last row of the block is the current
// row.
func (r *Rows) NextBlock(max int) Block {
	start := r.idx + 1
	if r.closed || max <= 0 || start >= r.Len() {
		return Block{}
	}
	b := &r.block
	ncols := len(r.result.Attrs)
	if cap(b.Cols) < ncols {
		b.Cols = make([][]int32, ncols)
	}
	b.Cols, b.Carriers = b.Cols[:ncols], b.Carriers[:0]
	if r.result.Mode == ModePlain {
		out, row := r.segAt(start)
		b.N, b.Sel = min(max, out.Len()-row), nil
		if sel := out.Sel(); sel != nil {
			copy(b.Cols, out.Cols())
			b.Sel = sel[row : row+b.N : row+b.N]
		} else {
			for c, col := range out.Cols() {
				b.Cols[c] = col[row : row+b.N : row+b.N]
			}
		}
		carriers := out.Carriers()
		i, _ := slices.BinarySearch(carriers, int32(row))
		for ; i < len(carriers) && int(carriers[i]) < row+b.N; i++ {
			b.Carriers = append(b.Carriers, carriers[i]-int32(row))
		}
		r.idx += b.N
		return *b
	}
	tuples := r.result.Tuples[start:min(start+max, len(r.result.Tuples))]
	b.N = len(tuples)
	for c := range b.Cols {
		col := b.Cols[c][:0]
		for _, tc := range tuples {
			col = append(col, tc.Tuple[c])
		}
		b.Cols[c] = col
	}
	b.Confs = b.Confs[:0]
	for _, tc := range tuples {
		b.Confs = append(b.Confs, tc.Conf)
	}
	r.idx += b.N
	return *b
}

// Close releases the result by returning its arenas to the engine's pool —
// an O(1) detach each, with no writes to the shared store (whose catalog was
// never touched by the query). Close is idempotent; Scan and Next fail/stop
// after it.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	for _, seg := range r.result.segs {
		engine.ReleaseArena(seg.arena)
	}
	r.result.segs = nil
	return nil
}

// valuesOf converts Go argument values to relation values.
func valuesOf(args []any) ([]relation.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]relation.Value, len(args))
	for i, a := range args {
		switch a := a.(type) {
		case int:
			out[i] = relation.Int(int64(a))
		case int32:
			out[i] = relation.Int(int64(a))
		case int64:
			out[i] = relation.Int(a)
		case string:
			out[i] = relation.String(a)
		case relation.Value:
			out[i] = a
		default:
			return nil, fmt.Errorf("sql: cannot bind argument %d of type %T (want int, string or relation.Value)", i+1, a)
		}
	}
	return out, nil
}
