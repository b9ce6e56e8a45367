package client

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/server"
	"maybms/internal/sql"
)

// Rows iterates a remote result with the sql.Rows contract — Next, Scan,
// Conf, Close — but holds at most one FETCH page client-side; the result
// itself lives in the server session's pooled arena until the cursor closes
// (explicitly via Close, or implicitly when the server reports the cursor
// exhausted). The page is kept as received and read in place: Scan and Conf
// decode the cell they are asked for, so iterating allocates nothing per row.
type Rows struct {
	c    *Conn
	stmt *Stmt

	id    uint32
	mode  sql.Mode
	total int
	stats engine.Stats
	cols  []string

	page    page
	fetched int // rows received so far, the current page included
	cur     int // row index into page; -1 before its first row
	done    bool
	closed  bool
	err     error
}

// page is one decoded v3 ROWS payload: n rows, column c's packed i32 codes
// at data[colOff[c]:], the f64 confidences (when hasConf) at data[confOff:].
type page struct {
	data    []byte
	n       int
	done    bool
	hasConf bool
	colOff  []int
	confOff int
}

// decodePage checks a ROWS payload against the shape the cursor expects —
// ncols columns and at most remaining rows still owed — and locates its
// columns. The payload length must match the declared row count exactly, and
// nothing is sliced before it does, so a hostile or corrupt page is an error,
// never an out-of-bounds read. colOff is reused when large enough.
func decodePage(payload []byte, ncols, remaining int, colOff []int) (page, error) {
	if len(payload) < server.RowsHeader {
		return page{}, fmt.Errorf("%d-byte payload is shorter than the %d-byte header", len(payload), server.RowsHeader)
	}
	done, conf := payload[0], payload[1]
	if done > 1 || conf > 1 {
		return page{}, fmt.Errorf("bad flags done=%d hasConf=%d", done, conf)
	}
	n := int(binary.BigEndian.Uint32(payload[2:]))
	if n > remaining {
		return page{}, fmt.Errorf("%d rows with only %d still owed", n, remaining)
	}
	p := page{data: payload, n: n, done: done == 1, hasConf: conf == 1}
	rowBytes := server.RowBytes(ncols, p.hasConf)
	if body := len(payload) - server.RowsHeader; body != n*rowBytes {
		return page{}, fmt.Errorf("%d rows of %d bytes need %d bytes, payload has %d", n, rowBytes, n*rowBytes, body)
	}
	if cap(colOff) < ncols {
		colOff = make([]int, ncols)
	}
	p.colOff = colOff[:ncols]
	off := server.RowsHeader
	for c := range p.colOff {
		p.colOff[c] = off
		off += 4 * n
	}
	p.confOff = off
	return p, nil
}

// cell is the engine code of (row, col); the page was length-checked.
func (p *page) cell(row, col int) int32 {
	return int32(binary.BigEndian.Uint32(p.data[p.colOff[col]+4*row:]))
}

// conf is the confidence of row (0 when the page carries none).
func (p *page) conf(row int) float64 {
	if !p.hasConf {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(p.data[p.confOff+8*row:]))
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

// Next advances to the next row, fetching the next page from the server
// when the current one is drained; it returns false at the end of the result
// or on error (check Err).
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	for {
		if r.cur+1 < r.page.n {
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
		if r.page.n == 0 && !r.done {
			r.err = fmt.Errorf("client: empty FETCH batch before cursor end (%d of %d rows)", r.fetched, r.total)
			return false
		}
	}
}

// fetch pulls the next page of at most the connection's FETCH size.
func (r *Rows) fetch() error {
	var w server.WBuf
	w.U32(r.id)
	w.U32(uint32(r.c.fetch))
	// The drained page's storage takes the next one.
	buf := r.page.data
	r.page.n = 0
	payload, err := r.c.roundInto(server.OpFetch, w.B, server.OpRows, buf)
	if err != nil {
		return err
	}
	p, err := decodePage(payload, len(r.cols), r.total-r.fetched, r.page.colOff)
	if err != nil {
		return fmt.Errorf("client: malformed ROWS frame: %w", err)
	}
	r.page = p
	r.fetched += p.n
	r.done = p.done
	r.cur = -1
	return nil
}

// Scan copies the current row into dest, one destination per column, with
// the sql.Rows destination types: *relation.Value always works; *int, *int32,
// *int64 and *string work for certain values.
func (r *Rows) Scan(dest ...any) error {
	if r.closed {
		return fmt.Errorf("client: Scan called after Close")
	}
	if r.cur < 0 || r.cur >= r.page.n {
		return fmt.Errorf("client: Scan called without a current row (call Next first)")
	}
	if len(dest) != len(r.cols) {
		return fmt.Errorf("client: Scan got %d destinations for %d columns", len(dest), len(r.cols))
	}
	for i, d := range dest {
		v := r.page.cell(r.cur, i)
		if pv, ok := d.(*relation.Value); ok {
			if v == engine.Placeholder {
				*pv = relation.Placeholder()
			} else {
				*pv = relation.Int(int64(v))
			}
			continue
		}
		if v == engine.Placeholder {
			return fmt.Errorf("client: column %s is uncertain in the template; scan into *relation.Value or query with POSSIBLE/CONF()", r.cols[i])
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
			return fmt.Errorf("client: unsupported Scan destination %T for column %s", d, r.cols[i])
		}
	}
	return nil
}

// Conf returns the confidence of the current row (0 for plain results,
// matching sql.Rows.Conf).
func (r *Rows) Conf() float64 {
	if r.closed || r.cur < 0 || r.cur >= r.page.n {
		return 0
	}
	return r.page.conf(r.cur)
}

// Close releases the server-side cursor (and its pooled arena). It is a
// no-op when the cursor already drained — the server closed it with the last
// batch. Close is idempotent.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.page = page{}
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
