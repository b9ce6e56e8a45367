package main

import (
	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/shard"
	"maybms/internal/sql"
	"maybms/internal/storage"
)

// stepper executes requests by calling the layers' public functions in the
// order internal/sql's executor strings them together (runEngine,
// runEngineSharded, DB.Materialize, DB.DropRelation), with a span around each
// call. It works on its own store, shard set and log, so the spans come from
// the benchmark's files alone; README.md lists the entry points it calls.
type stepper struct {
	tr    *tracer
	store *engine.Store
	// sh is nil when the workload pins -shards 1.
	sh *shard.Store
	// wal is nil when the workload is in memory.
	wal   *storage.WAL
	plans map[string]*sql.EnginePlan

	requests int
	// Counts taken at the same boundaries as the spans.
	rowsOut    int64
	arenaBytes int64
	walAppends int
}

// timed runs f inside a span; span is timed for an f that cannot fail.
func (s *stepper) timed(req, parent int, layer, name string, f func() error) error {
	id := s.tr.begin(req, parent, layer, name)
	err := f()
	s.tr.end(id)
	return err
}

func (s *stepper) span(req, parent int, layer, name string, f func()) {
	id := s.tr.begin(req, parent, layer, name)
	f()
	s.tr.end(id)
}

// plan returns the compiled template of a statement, compiling on first use
// the way DB.Prepare's cache does.
func (s *stepper) plan(text string) (*sql.EnginePlan, error) {
	if tpl, ok := s.plans[text]; ok && tpl.CatalogValid(s.store.Snapshot()) {
		return tpl, nil
	}
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	tpl, err := sql.CompileEngine(st, s.store.Snapshot())
	if err != nil {
		return nil, err
	}
	s.plans[text] = tpl
	return tpl, nil
}

// distributable mirrors internal/sql's rule: a plan runs shard-local when
// every operator distributes over a row partition of its inputs.
func distributable(p *sql.EnginePlan) bool {
	for _, op := range p.Ops {
		switch op.Kind {
		case sql.OpSelect, sql.OpProject, sql.OpRename, sql.OpUnion:
		default:
			return false
		}
	}
	return true
}

// execute binds and runs tpl on a fresh arena over snap. The caller releases
// the arena.
func (s *stepper) execute(req, parent int, snap *engine.Snapshot, tpl *sql.EnginePlan) (ar *engine.Arena, scratch string, err error) {
	s.span(req, parent, "engine", "arena", func() { ar = engine.AcquireArena(snap) })
	scratch = ar.NewScratch()
	var plan *sql.EnginePlan
	err = s.timed(req, parent, "sql", "bind", func() (err error) {
		plan, err = tpl.Bind(scratch, nil)
		return err
	})
	if err == nil {
		err = s.timed(req, parent, "engine", "run", func() error {
			if err := plan.Run(ar); err != nil {
				return err
			}
			plan.DropTemps(ar)
			return nil
		})
	}
	if err != nil {
		engine.ReleaseArena(ar)
		return nil, "", err
	}
	return ar, scratch, nil
}

func (s *stepper) release(req, parent int, ars ...*engine.Arena) {
	s.span(req, parent, "engine", "arena", func() {
		for _, ar := range ars {
			engine.ReleaseArena(ar)
		}
	})
}

// scan reads every value of a plain result out of its arena, as sql.Rows.Scan
// does for a client that drains the rows.
func scan(rel *engine.Relation, fp *fingerprint) int {
	row := make([]relation.Value, len(rel.Cols))
	n := rel.NumRows()
	for r := 0; r < n; r++ {
		for c, col := range rel.Cols {
			if v := col[r]; v != engine.Placeholder {
				row[c] = relation.Int(int64(v))
			} else {
				row[c] = relation.Placeholder()
			}
		}
		if fp != nil {
			fp.add(row, 0, false)
		}
	}
	return n
}

// answers turns a folded confidence table into the statement's rows.
func answers(mode sql.Mode, tcs []engine.TupleConf, fp *fingerprint) int {
	n := 0
	for _, tc := range tcs {
		if mode == sql.ModeCertain && tc.Conf < 1-1e-9 {
			continue
		}
		row := make([]relation.Value, len(tc.Tuple))
		for i, v := range tc.Tuple {
			row[i] = relation.Int(int64(v))
		}
		n++
		if fp != nil {
			fp.add(row, tc.Conf, true)
		}
	}
	return n
}

// query steps one SELECT under the span parent and returns its fingerprint
// when fp is set.
func (s *stepper) query(req, parent int, text string, fp *fingerprint) error {
	tpl, err := s.plan(text)
	if err != nil {
		return err
	}
	if s.sh != nil && distributable(tpl) {
		return s.queryShards(req, parent, tpl, fp)
	}
	var snap *engine.Snapshot
	s.span(req, parent, "engine", "snapshot", func() { snap = s.store.Snapshot() })
	ar, scratch, err := s.execute(req, parent, snap, tpl)
	if err != nil {
		return err
	}
	defer s.release(req, parent, ar)
	s.arenaBytes += ar.MemUsage()
	if tpl.Mode == sql.ModePlain {
		s.span(req, parent, "engine", "scan", func() { s.rowsOut += int64(scan(ar.Rel(scratch), fp)) })
		return nil
	}
	var tms []engine.TupleMasses
	if err := s.timed(req, parent, "engine", "view", func() (err error) {
		tms, err = ar.PossibleMasses(scratch)
		return err
	}); err != nil {
		return err
	}
	return s.timed(req, parent, "engine", "fold", func() error {
		tcs, err := engine.FoldMassTable(nil, tms)
		s.rowsOut += int64(answers(tpl.Mode, tcs, fp))
		return err
	})
}

// queryShards steps a distributable statement: the plan once per shard
// snapshot on the worker pool, then the coordinator's merge.
func (s *stepper) queryShards(req, parent int, tpl *sql.EnginePlan, fp *fingerprint) error {
	var snaps []*engine.Snapshot
	s.span(req, parent, "engine", "snapshot", func() { snaps = s.sh.Snapshots() })
	arenas := make([]*engine.Arena, len(snaps))
	rels := make([]*engine.Relation, len(snaps))
	parts := make([][]engine.TupleMasses, len(snaps))
	fan := s.tr.begin(req, parent, "shard", "fanout")
	err := shard.EachSnapshot(snaps, s.sh.Workers(), func(i int, sn *engine.Snapshot) error {
		w := s.tr.begin(req, fan, "shard", "worker")
		defer s.tr.end(w)
		ar, scratch, err := s.execute(req, w, sn, tpl)
		if err != nil {
			return err
		}
		arenas[i], rels[i] = ar, ar.Rel(scratch)
		if tpl.Mode == sql.ModePlain {
			return nil
		}
		return s.timed(req, w, "engine", "view", func() (err error) {
			parts[i], err = ar.PossibleMasses(scratch)
			return err
		})
	})
	s.tr.end(fan)
	defer s.release(req, parent, arenas...)
	if err != nil {
		return err
	}
	for _, ar := range arenas {
		s.arenaBytes += ar.MemUsage()
	}
	if tpl.Mode == sql.ModePlain {
		s.span(req, parent, "engine", "scan", func() {
			for _, rel := range rels {
				s.rowsOut += int64(scan(rel, fp))
			}
		})
		return nil
	}
	return s.timed(req, parent, "engine", "fold", func() error {
		merged, err := engine.MergeMasses(nil, parts)
		if err != nil {
			return err
		}
		tcs, err := engine.FoldMassTable(nil, merged)
		s.rowsOut += int64(answers(tpl.Mode, tcs, fp))
		return err
	})
}

// logAndResync is the tail every catalog commit shares: the WAL record
// (fsync included) and the O(store) re-partition of the shard set.
func (s *stepper) logAndResync(req, parent int, rec *storage.WALRecord) error {
	if s.wal != nil {
		if err := s.timed(req, parent, "storage", "wal_append", func() error { return s.wal.Append(rec) }); err != nil {
			return err
		}
		s.walAppends++
	}
	if s.sh != nil {
		return s.timed(req, parent, "shard", "resync", s.sh.Resync)
	}
	return nil
}

// materialize steps DB.Materialize: run the plan on the authority store,
// commit the arena under the result name, log, resync.
func (s *stepper) materialize(req, parent int, res, text string) (engine.Stats, error) {
	tpl, err := s.plan(text)
	if err != nil {
		return engine.Stats{}, err
	}
	var snap *engine.Snapshot
	s.span(req, parent, "engine", "snapshot", func() { snap = s.store.Snapshot() })
	ar, scratch, err := s.execute(req, parent, snap, tpl)
	if err != nil {
		return engine.Stats{}, err
	}
	var stats engine.Stats
	err = s.timed(req, parent, "engine", "commit", func() error {
		if err := ar.RenameRelation(scratch, res); err != nil {
			return err
		}
		stats = ar.Stats(res)
		return ar.Commit()
	})
	s.release(req, parent, ar)
	if err != nil {
		return engine.Stats{}, err
	}
	return stats, s.logAndResync(req, parent, &storage.WALRecord{Type: storage.RecMaterialize, Res: res, Query: text})
}

// drop steps DB.DropRelation.
func (s *stepper) drop(req, parent int, rel string) error {
	s.span(req, parent, "engine", "commit", func() { s.store.DropRelation(rel) })
	return s.logAndResync(req, parent, &storage.WALRecord{Type: storage.RecDrop, Name: rel})
}

// op steps one operation of the workload (statement stmt of a read workload,
// or a q5_session cycle) under a root span of its own. With check set the
// answers are fingerprinted and compared with the reference.
func (s *stepper) op(w *workload, stmt int, exp *expected, check bool) error {
	s.requests++
	req := s.requests
	root := s.tr.begin(req, 0, "request", "op")
	defer s.tr.end(root)
	query := func(text string, want fingerprint) error {
		if !check {
			return s.query(req, root, text, nil)
		}
		var fp fingerprint
		if err := s.query(req, root, text, &fp); err != nil {
			return err
		}
		if fp != want {
			return wrongf("stepped: %s answers %v, in-process reference %v", text, fp, want)
		}
		return nil
	}
	if w.stmts != nil {
		return query(w.stmts[stmt], exp.stmts[w.stmts[stmt]])
	}
	q2, q3, join := q5Names(0)
	s2, err := s.materialize(req, root, q2, census.SQL["Q2"])
	if err != nil {
		return err
	}
	s3, err := s.materialize(req, root, q3, census.SQL["Q3"])
	if err != nil {
		return err
	}
	if check && (s2 != exp.q2Stats || s3 != exp.q3Stats) {
		return wrongf("stepped MATERIALIZE stats %+v, %+v; reference %+v, %+v", s2, s3, exp.q2Stats, exp.q3Stats)
	}
	if err := query(join, exp.q5); err != nil {
		return err
	}
	if err := query(census.SQL["Q1"], exp.stmts[census.SQL["Q1"]]); err != nil {
		return err
	}
	if err := s.drop(req, root, q2); err != nil {
		return err
	}
	return s.drop(req, root, q3)
}
