package client

import (
	"fmt"

	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/server"
	"maybms/internal/sql"
)

// Rows iterates a remote result with the sql.Rows contract — Next, Scan,
// Conf, Close — but holds at most one FETCH batch client-side; the result
// itself lives in the server session's pooled arena until the cursor closes
// (explicitly via Close, or implicitly when the server reports the cursor
// exhausted).
type Rows struct {
	c    *Conn
	stmt *Stmt

	id    uint32
	mode  sql.Mode
	total int
	stats engine.Stats
	cols  []string

	batch   [][]relation.Value
	confs   []float64
	hasConf bool
	cur     int // index into batch; -1 before the first row of a batch
	done    bool
	closed  bool
	err     error
}

// Columns returns the output attribute names.
func (r *Rows) Columns() []string { return r.cols }

// Mode reports what the rows mean (plain tuples, CONF() answers, ...).
func (r *Rows) Mode() sql.Mode { return r.mode }

// Stats returns the representation statistics of the result.
func (r *Rows) Stats() engine.Stats { return r.stats }

// Len returns the total number of rows the cursor yields.
func (r *Rows) Len() int { return r.total }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Next advances to the next row, fetching the next batch from the server
// when the current one is drained; it returns false at the end of the result
// or on error (check Err).
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	for {
		if r.cur+1 < len(r.batch) {
			r.cur++
			return true
		}
		if r.done {
			// The server auto-closed the exhausted cursor; nothing to send.
			r.closed = true
			r.release()
			return false
		}
		if err := r.fetch(); err != nil {
			r.err = err
			return false
		}
		if len(r.batch) == 0 && !r.done {
			r.err = fmt.Errorf("client: empty FETCH batch before cursor end (%d of %d rows)", 0, r.total)
			return false
		}
	}
}

// fetch pulls the next batch of at most the connection's FETCH size.
func (r *Rows) fetch() error {
	var w server.WBuf
	w.U32(r.id)
	w.U32(uint32(r.c.fetch))
	payload, err := r.c.round(server.OpFetch, w.B, server.OpRows)
	if err != nil {
		return err
	}
	p := server.RBuf{B: payload}
	done := p.U8() == 1
	r.hasConf = p.U8() == 1
	n := int(p.U32())
	r.batch = r.batch[:0]
	r.confs = r.confs[:0]
	for i := 0; i < n && p.Err == nil; i++ {
		row := make([]relation.Value, len(r.cols))
		for j := range row {
			row[j] = p.Value()
		}
		if r.hasConf {
			r.confs = append(r.confs, p.F64())
		}
		r.batch = append(r.batch, row)
	}
	if p.Err != nil {
		return fmt.Errorf("client: malformed ROWS frame: %w", p.Err)
	}
	r.done = done
	r.cur = -1
	return nil
}

// Scan copies the current row into dest, one destination per column, with
// the sql.Rows destination types: *relation.Value always works; *int, *int32,
// *int64 and *string work for certain values of the matching kind.
func (r *Rows) Scan(dest ...any) error {
	if r.closed {
		return fmt.Errorf("client: Scan called after Close")
	}
	if r.cur < 0 || r.cur >= len(r.batch) {
		return fmt.Errorf("client: Scan called without a current row (call Next first)")
	}
	if len(dest) != len(r.cols) {
		return fmt.Errorf("client: Scan got %d destinations for %d columns", len(dest), len(r.cols))
	}
	row := r.batch[r.cur]
	for i, d := range dest {
		v := row[i]
		if pv, ok := d.(*relation.Value); ok {
			*pv = v
			continue
		}
		if v.IsPlaceholder() {
			return fmt.Errorf("client: column %s is uncertain in the template; scan into *relation.Value or query with POSSIBLE/CONF()", r.cols[i])
		}
		switch d := d.(type) {
		case *int64, *int, *int32:
			if v.Kind() != relation.KindInt {
				return fmt.Errorf("client: column %s holds %s, not an integer; scan into *string or *relation.Value", r.cols[i], v)
			}
			switch d := d.(type) {
			case *int64:
				*d = v.AsInt()
			case *int:
				*d = int(v.AsInt())
			case *int32:
				*d = int32(v.AsInt())
			}
		case *string:
			if v.Kind() == relation.KindString {
				*d = v.AsString()
			} else {
				*d = v.String()
			}
		default:
			return fmt.Errorf("client: unsupported Scan destination %T for column %s", d, r.cols[i])
		}
	}
	return nil
}

// Conf returns the confidence of the current row (0 for plain results,
// matching sql.Rows.Conf).
func (r *Rows) Conf() float64 {
	if r.closed || r.cur < 0 || r.cur >= len(r.confs) {
		return 0
	}
	return r.confs[r.cur]
}

// Close releases the server-side cursor (and its pooled arena). It is a
// no-op when the cursor already drained — the server closed it with the last
// batch. Close is idempotent.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.batch = nil
	r.confs = nil
	var errClose error
	if !r.done {
		var w server.WBuf
		w.U32(r.id)
		_, errClose = r.c.round(server.OpCloseCursor, w.B, server.OpOK)
	}
	if err := r.release(); errClose == nil {
		errClose = err
	}
	return errClose
}

// release drops the one-shot statement of a Conn.Query once its rows are
// finished.
func (r *Rows) release() error {
	if r.stmt != nil && r.stmt.autoDrop {
		return r.stmt.Close()
	}
	return nil
}
