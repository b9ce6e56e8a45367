package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"maybms/internal/engine"
	"maybms/internal/sql"
)

// session is one connection: its own prepared-statement table, its own open
// cursors (each owning a pooled result arena via sql.Rows), its own memory
// ledger. Requests are answered synchronously — one request, one response —
// but since protocol v2 a dedicated reader goroutine pulls frames off the
// wire, so the out-of-band CANCEL opcode (and a connection teardown) can
// cancel the request the session goroutine is still executing. Session maps
// are still touched only by the session goroutine; the few fields the reader
// and in-flight engine workers need are independently synchronized.
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// page is the ROWS payload buffer, reused from one FETCH to the next (a
	// response is written out before the next request is read); a buffer
	// grown past maxKeptPage is not kept.
	page []byte

	stmts      map[uint32]*sql.Prepared
	cursors    map[uint32]*cursor
	nextStmt   uint32
	nextCursor uint32
	mem        atomic.Int64 // bytes charged by open cursors (session budget)

	// closed unparks the reader goroutine when the session goroutine exits
	// first; closing it is guarded by closeOnce.
	closed    chan struct{}
	closeOnce sync.Once

	// curMu guards curCancel (the in-flight request's cancel, nil between
	// requests) and reserved (mid-flight bytes charged to the global ledger
	// by the memory guard). Touched by the reader goroutine (CANCEL,
	// disconnect), by Shutdown, and by engine workers mid-query.
	curMu     sync.Mutex
	curCancel context.CancelFunc
	reserved  int64
}

// cursor is one executing statement's result, streamed out in FETCH batches.
type cursor struct {
	rows    *sql.Rows
	cols    []string
	hasConf bool
	fetched int
	total   int
	mem     int64
}

func newSession(srv *Server, conn net.Conn) *session {
	return &session{
		srv:     srv,
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 32<<10),
		bw:      bufio.NewWriterSize(conn, 32<<10),
		stmts:   make(map[uint32]*sql.Prepared),
		cursors: make(map[uint32]*cursor),
		closed:  make(chan struct{}),
	}
}

// setInflight publishes the in-flight request's cancel so CANCEL frames,
// disconnects and forced shutdown reach it.
func (s *session) setInflight(cancel context.CancelFunc) {
	s.curMu.Lock()
	s.curCancel = cancel
	s.curMu.Unlock()
}

// clearInflight retires the in-flight request, always invoking its cancel
// (releasing the deadline timer; the request is done, so this cancels
// nothing).
func (s *session) clearInflight() {
	s.curMu.Lock()
	if s.curCancel != nil {
		s.curCancel()
		s.curCancel = nil
	}
	s.curMu.Unlock()
}

// cancelInflight cancels the request the session goroutine is executing, if
// any. Safe from any goroutine; a no-op between requests.
func (s *session) cancelInflight() {
	s.curMu.Lock()
	if s.curCancel != nil {
		s.curCancel()
	}
	s.curMu.Unlock()
}

// beginRequest builds the context an executing request (EXEC, MATERIALIZE)
// runs under: the RequestTimeout deadline, canceled early by a CANCEL frame,
// a disconnect, or forced shutdown. The memory guard hook rides along so
// arena growth is charged while the statement runs. Pair with endRequest.
func (s *session) beginRequest() (context.Context, time.Time) {
	deadline := time.Now().Add(s.srv.cfg.RequestTimeout)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	ctx = sql.WithMemGuard(ctx, func(delta int64) error { return s.memGrow(delta, deadline) })
	s.setInflight(cancel)
	return ctx, deadline
}

// endRequest retires a request begun by beginRequest that leaves no cursor
// behind, returning its mid-flight memory reservation.
func (s *session) endRequest() {
	s.clearInflight()
	s.settleReserved()
}

// errMidBudget marks a query aborted mid-flight by the memory guard; the
// wire code is ErrMemBudget, same as a cursor-open rejection.
var errMidBudget = errors.New("memory budget exceeded mid-query")

// memGrow is the mid-flight memory guard hook (sql.WithMemGuard): engine
// checkpoints report arena growth here while the result is being built, so a
// query that would blow the session or global budget is stopped during
// execution instead of being measured only at cursor open. The contract
// mirrors cursor-open admission: a session-budget breach and a query that
// alone could never fit the global budget reject immediately (ErrMemBudget);
// global contention queues until other sessions free memory, bounded by the
// request deadline (ErrTimeout) — while queued, the query holds still, so a
// CANCEL takes effect only once the wait resolves. When the request finishes
// the reservation becomes the cursor's charge (chargeCursor) or is released
// (settleReserved). Called from engine worker goroutines.
func (s *session) memGrow(delta int64, deadline time.Time) error {
	if delta <= 0 {
		return nil
	}
	s.curMu.Lock()
	if s.mem.Load()+s.reserved+delta > s.srv.cfg.SessionBudget {
		s.curMu.Unlock()
		return fmt.Errorf("%w: session budget %d bytes", errMidBudget, s.srv.cfg.SessionBudget)
	}
	if s.reserved+delta > s.srv.cfg.GlobalBudget {
		s.curMu.Unlock()
		return fmt.Errorf("%w: the query alone exceeds the global budget (%d bytes)",
			errMidBudget, s.srv.cfg.GlobalBudget)
	}
	s.curMu.Unlock()
	if err := s.srv.global.acquire(delta, deadline); err != nil {
		if errors.Is(err, errQueueTimeout) {
			return fmt.Errorf("%w waiting for memory mid-query (global budget %d bytes, %d in use)",
				errQueueTimeout, s.srv.cfg.GlobalBudget, s.srv.global.Used())
		}
		return fmt.Errorf("%w: %v", errMidBudget, err)
	}
	s.curMu.Lock()
	s.reserved += delta
	s.curMu.Unlock()
	return nil
}

// chargeCursor turns the request's mid-flight reservation into the charge of
// its finished result: the bytes the query already holds on the global
// ledger stay held, and only the difference to mem is acquired (queueing to
// the deadline, as mid-flight growth does) or released — a result is never
// unaccounted between the end of its query and its cursor, and never queues
// behind bytes it held itself. On error nothing stays charged.
func (s *session) chargeCursor(mem int64, deadline time.Time) error {
	s.curMu.Lock()
	held := s.reserved
	s.reserved = 0
	s.curMu.Unlock()
	if mem <= held {
		s.srv.global.release(held - mem)
		return nil
	}
	err := errOverBudget
	if mem <= s.srv.cfg.GlobalBudget {
		err = s.srv.global.acquire(mem-held, deadline)
	}
	if err != nil {
		s.srv.global.release(held)
	}
	return err
}

// settleReserved returns the in-flight reservation to the global ledger: the
// request failed, or its result lives in the store (MATERIALIZE) rather than
// in a cursor.
func (s *session) settleReserved() {
	s.curMu.Lock()
	n := s.reserved
	s.reserved = 0
	s.curMu.Unlock()
	s.srv.global.release(n)
}

// drain unparks a session blocked reading its next request so the serve loop
// can answer ErrShutdown and exit; a request already executing finishes and
// its response is written first (the deadline only poisons reads).
func (s *session) drain() {
	s.conn.SetReadDeadline(time.Now()) //nolint:errcheck // closing anyway on failure
}

// protoErr is a request failure: a typed error frame, optionally fatal to
// the connection (framing no longer trustworthy).
type protoErr struct {
	code  uint16
	msg   string
	fatal bool
}

func perr(code uint16, format string, args ...any) *protoErr {
	return &protoErr{code: code, msg: fmt.Sprintf(format, args...)}
}

func (e *protoErr) asFatal() *protoErr { e.fatal = true; return e }

// frame is one request as handed from the reader goroutine to the session
// goroutine; err reports the end of the stream (EOF, corruption, drain).
type frame struct {
	op      byte
	payload []byte
	err     error
}

// serve runs the session to completion: handshake, then one frame in, one
// frame out, until the peer disconnects, a fatal protocol error poisons the
// stream, or the server drains. Frames are pulled by a dedicated reader
// goroutine so CANCEL — and the implicit cancel of a disconnect — reaches a
// request this goroutine is still executing. A panic escaping a request is
// contained at the dispatch boundary; a panic escaping the session machinery
// itself is contained here, so a poisoned connection never kills the
// process.
func (s *session) serve() {
	defer s.cleanup()
	defer func() {
		if p := recover(); p != nil {
			s.srv.cfg.Logf("maybmsd: %s: session panic: %v\n%s", s.conn.RemoteAddr(), p, debug.Stack())
		}
	}()
	if err := s.handshake(); err != nil {
		s.reply(OpErr, errPayload(err.code, err.msg))
		return
	}
	frames := make(chan frame)
	go s.readLoop(frames)
	for fr := range frames {
		if fr.err != nil {
			if s.srv.draining.Load() {
				// Drain unparked the read (or the peer was mid-frame): tell
				// the client why the connection is going away.
				s.reply(OpErr, errPayload(ErrShutdown, "server is draining"))
				return
			}
			if !errors.Is(fr.err, io.EOF) {
				s.reply(OpErr, errPayload(ErrProtocol, fr.err.Error()))
			}
			return
		}
		rop, rpayload, perr := s.dispatchSafe(fr.op, fr.payload)
		if perr != nil {
			rop, rpayload = OpErr, errPayload(perr.code, perr.msg)
		}
		if !s.reply(rop, rpayload) {
			return
		}
		if perr != nil && perr.fatal {
			return
		}
	}
}

// readLoop pulls frames off the wire on its own goroutine. CANCEL frames are
// consumed here — out of band, no response — and cancel the in-flight
// request; so does the stream ending for any reason other than a server
// drain (a vanished client's query must stop consuming CPU). The loop exits
// on stream end or when the session goroutine closes s.closed.
func (s *session) readLoop(frames chan<- frame) {
	defer close(frames)
	for {
		op, payload, err := ReadFrame(s.br)
		if err != nil {
			if !s.srv.draining.Load() {
				s.cancelInflight()
			}
			select {
			case frames <- frame{err: err}:
			case <-s.closed:
			}
			return
		}
		if op == OpCancel {
			s.cancelInflight()
			continue
		}
		select {
		case frames <- frame{op: op, payload: payload}:
		case <-s.closed:
			return
		}
	}
}

// dispatchSafe is dispatch behind a panic barrier: a defect inside one
// request (engine bug, poisoned data) answers a typed ErrInternal frame with
// the stack in the server log, and the session — and every other connection —
// keeps serving.
func (s *session) dispatchSafe(op byte, payload []byte) (rop byte, rpayload []byte, pe *protoErr) {
	defer func() {
		if p := recover(); p != nil {
			s.srv.cfg.Logf("maybmsd: %s: panic in request 0x%02x: %v\n%s", s.conn.RemoteAddr(), op, p, debug.Stack())
			rop, rpayload = 0, nil
			pe = perr(ErrInternal, "internal error executing request 0x%02x (see server log)", op)
			// The panic may have skipped the request's own bookkeeping.
			s.clearInflight()
			s.settleReserved()
		}
	}()
	return s.dispatch(op, payload)
}

// reply writes one response frame under the request write deadline; false
// means the connection is dead.
func (s *session) reply(op byte, payload []byte) bool {
	s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.RequestTimeout)) //nolint:errcheck
	if err := WriteFrame(s.bw, op, payload); err != nil {
		return false
	}
	return s.bw.Flush() == nil
}

// handshake expects the OpHello frame: magic + requested version.
func (s *session) handshake() *protoErr {
	s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.RequestTimeout)) //nolint:errcheck
	op, payload, err := ReadFrame(s.br)
	s.conn.SetReadDeadline(time.Time{}) //nolint:errcheck
	if err != nil {
		return perr(ErrProtocol, "reading handshake: %v", err)
	}
	if op != OpHello {
		return perr(ErrProtocol, "expected HELLO, got opcode 0x%02x", op)
	}
	r := RBuf{B: payload}
	magic := string(r.Take(len(Magic)))
	version := r.U16()
	if err := r.Done(); err != nil || magic != Magic {
		return perr(ErrProtocol, "bad handshake (not a %s client?)", Magic)
	}
	if version != ProtoVersion {
		return perr(ErrProtocol, "protocol version %d not supported (server speaks %d)", version, ProtoVersion)
	}
	var w WBuf
	w.U16(ProtoVersion)
	w.Str("maybmsd")
	if !s.reply(OpHelloOK, w.B) {
		return perr(ErrProtocol, "handshake reply failed").asFatal()
	}
	return nil
}

// dispatch routes one request. Malformed payloads inside a well-delimited
// frame answer a typed error and keep the connection: framing is intact, so
// the next frame is readable. Only stream-level corruption is fatal.
func (s *session) dispatch(op byte, payload []byte) (byte, []byte, *protoErr) {
	if s.srv.draining.Load() {
		return 0, nil, perr(ErrShutdown, "server is draining").asFatal()
	}
	r := RBuf{B: payload}
	switch op {
	case OpPing:
		if err := r.Done(); err != nil {
			return 0, nil, perr(ErrProtocol, "PING: %v", err)
		}
		return OpOK, nil, nil
	case OpPrepare:
		return s.prepare(&r)
	case OpExec:
		return s.exec(&r)
	case OpFetch:
		return s.fetch(&r)
	case OpCloseCursor:
		id := r.U32()
		if err := r.Done(); err != nil {
			return 0, nil, perr(ErrProtocol, "CLOSE_CURSOR: %v", err)
		}
		c, ok := s.cursors[id]
		if !ok {
			return 0, nil, perr(ErrUnknownCursor, "no open cursor %d", id)
		}
		s.closeCursor(id, c)
		return OpOK, nil, nil
	case OpCloseStmt:
		id := r.U32()
		if err := r.Done(); err != nil {
			return 0, nil, perr(ErrProtocol, "CLOSE_STMT: %v", err)
		}
		st, ok := s.stmts[id]
		if !ok {
			return 0, nil, perr(ErrUnknownStmt, "no prepared statement %d", id)
		}
		st.Close() //nolint:errcheck // always nil; the DB keeps the plan cached
		delete(s.stmts, id)
		return OpOK, nil, nil
	case OpExplain:
		text := r.Str()
		if err := r.Done(); err != nil {
			return 0, nil, perr(ErrProtocol, "EXPLAIN: %v", err)
		}
		out, err := s.srv.db.Explain(text)
		if err != nil {
			return 0, nil, perr(ErrSQL, "%v", err)
		}
		var w WBuf
		w.Str(out)
		return OpExplained, w.B, nil
	case OpMaterialize:
		return s.materialize(&r)
	case OpDrop:
		rel := r.Str()
		if err := r.Done(); err != nil {
			return 0, nil, perr(ErrProtocol, "DROP: %v", err)
		}
		if err := s.srv.db.DropRelation(rel); err != nil {
			return 0, nil, perr(execErrCode(err), "%v", err)
		}
		return OpOK, nil, nil
	case OpCatalog:
		if err := r.Done(); err != nil {
			return 0, nil, perr(ErrProtocol, "CATALOG: %v", err)
		}
		return s.catalog()
	}
	return 0, nil, perr(ErrProtocol, "unknown opcode 0x%02x", op)
}

func (s *session) prepare(r *RBuf) (byte, []byte, *protoErr) {
	text := r.Str()
	if err := r.Done(); err != nil {
		return 0, nil, perr(ErrProtocol, "PREPARE: %v", err)
	}
	st, err := s.srv.db.Prepare(text)
	if err != nil {
		return 0, nil, perr(ErrSQL, "%v", err)
	}
	s.nextStmt++
	id := s.nextStmt
	s.stmts[id] = st
	var w WBuf
	w.U32(id)
	w.U16(uint16(st.NumParams()))
	cols := st.Columns()
	w.U16(uint16(len(cols)))
	for _, c := range cols {
		w.Str(c)
	}
	return OpPrepared, w.B, nil
}

func (s *session) exec(r *RBuf) (byte, []byte, *protoErr) {
	id := r.U32()
	nargs := int(r.U16())
	args := make([]any, 0, nargs)
	for i := 0; i < nargs && r.Err == nil; i++ {
		args = append(args, r.Value())
	}
	if err := r.Done(); err != nil {
		return 0, nil, perr(ErrProtocol, "EXEC: %v", err)
	}
	st, ok := s.stmts[id]
	if !ok {
		return 0, nil, perr(ErrUnknownStmt, "no prepared statement %d", id)
	}
	ctx, deadline := s.beginRequest()
	rows, err := st.QueryContext(ctx, args...)
	if err != nil {
		s.endRequest()
		return 0, nil, perr(execErrCode(err), "%v", err)
	}
	s.clearInflight()
	// Admission: the result is measured, then charged against the session
	// budget (reject — the session holds too much) and the global ledger
	// (queue until other sessions free memory, bounded by the deadline).
	mem := rows.MemUsage()
	if s.mem.Load()+mem > s.srv.cfg.SessionBudget {
		rows.Close() //nolint:errcheck // releasing the rejected result
		s.settleReserved()
		return 0, nil, perr(ErrMemBudget,
			"result needs %d bytes; session holds %d of its %d-byte budget (close cursors or narrow the query)",
			mem, s.mem.Load(), s.srv.cfg.SessionBudget)
	}
	if err := s.chargeCursor(mem, deadline); err != nil {
		rows.Close() //nolint:errcheck // releasing the rejected result
		code := ErrMemBudget
		if errors.Is(err, errQueueTimeout) {
			code = ErrTimeout
		}
		return 0, nil, perr(code, "%v (global budget %d bytes, %d in use)",
			err, s.srv.cfg.GlobalBudget, s.srv.global.Used())
	}
	s.mem.Add(mem)

	res := rows.Result()
	cols := rows.Columns()
	c := &cursor{
		rows: rows, cols: cols, hasConf: res.Mode != sql.ModePlain,
		total: rows.Len(), mem: mem,
	}
	s.nextCursor++
	cid := s.nextCursor
	s.cursors[cid] = c

	var w WBuf
	w.U32(cid)
	w.U8(byte(res.Mode))
	w.U32(uint32(c.total))
	w.Stats(res.Stats)
	w.U16(uint16(len(cols)))
	for _, col := range cols {
		w.Str(col)
	}
	return OpExecOK, w.B, nil
}

// maxKeptPage bounds the page buffer a session keeps between FETCHes: a
// default-sized page (4096 rows of 50 columns is 800 KiB) is reused, a
// near-MaxFrame one is not held by an idle session.
const maxKeptPage = 1 << 20

// fetch streams the next batch of a cursor: at most min(asked, FetchBatch)
// tuples per frame, and never more than fit in MaxFrame, so a huge result
// crosses the wire in bounded frames and is never rendered into one response
// buffer. A batch is one sql.Rows block, so it ends early at a shard
// segment's boundary. An exhausted cursor reports done and is closed
// server-side (its arena returns to the pool at once); the client treats
// done as an implicit CLOSE_CURSOR.
func (s *session) fetch(r *RBuf) (byte, []byte, *protoErr) {
	id := r.U32()
	asked := int(r.U32())
	if err := r.Done(); err != nil {
		return 0, nil, perr(ErrProtocol, "FETCH: %v", err)
	}
	c, ok := s.cursors[id]
	if !ok {
		return 0, nil, perr(ErrUnknownCursor, "no open cursor %d", id)
	}
	if asked <= 0 || asked > s.srv.cfg.FetchBatch {
		asked = s.srv.cfg.FetchBatch
	}
	// MaxFrame counts the opcode byte too.
	rowBytes := RowBytes(len(c.cols), c.hasConf)
	if rowBytes > 0 {
		asked = min(asked, (MaxFrame-1-RowsHeader)/rowBytes)
	}
	blk := c.rows.NextBlock(asked)
	payload := slices.Grow(s.page[:0], RowsHeader+blk.N*rowBytes)
	payload = AppendPage(payload, c.hasConf, blk)
	if cap(payload) <= maxKeptPage {
		s.page = payload
	}
	c.fetched += blk.N
	if c.fetched >= c.total {
		payload[0] = 1
		s.closeCursor(id, c)
	}
	return OpRows, payload, nil
}

func (s *session) materialize(r *RBuf) (byte, []byte, *protoErr) {
	res := r.Str()
	text := r.Str()
	nargs := int(r.U16())
	args := make([]any, 0, nargs)
	for i := 0; i < nargs && r.Err == nil; i++ {
		args = append(args, r.Value())
	}
	if err := r.Done(); err != nil {
		return 0, nil, perr(ErrProtocol, "MATERIALIZE: %v", err)
	}
	ctx, _ := s.beginRequest()
	result, err := s.srv.db.MaterializeContext(ctx, res, text, args...)
	s.endRequest()
	if err != nil {
		return 0, nil, perr(execErrCode(err), "%v", err)
	}
	var w WBuf
	w.Stats(result.Stats)
	return OpMaterialized, w.B, nil
}

func (s *session) catalog() (byte, []byte, *protoErr) {
	db := s.srv.db
	rels := db.Catalog()
	var w WBuf
	w.U32(uint32(len(rels)))
	for _, ri := range rels {
		w.Str(ri.Name)
		w.U16(uint16(len(ri.Attrs)))
		for _, a := range ri.Attrs {
			w.Str(a)
		}
		w.Stats(ri.Stats)
		w.U32(uint32(ri.Placeholders))
	}
	return OpCatalogR, w.B, nil
}

// execErrCode maps an execution error to its wire code: the engine's
// cancellation chain distinguishes a deadline (TIMEOUT) from a client cancel
// or disconnect (CANCELED); the mid-flight memory guard keeps the MEM_BUDGET
// contract of cursor-open rejections.
func execErrCode(err error) uint16 {
	switch {
	case errors.Is(err, errMidBudget):
		return ErrMemBudget
	case errors.Is(err, errQueueTimeout), errors.Is(err, context.DeadlineExceeded):
		return ErrTimeout
	case errors.Is(err, engine.ErrCanceled), errors.Is(err, context.Canceled):
		return ErrCanceled
	}
	return ErrSQL
}

// closeCursor releases one cursor: the Rows close returns the pooled arena,
// and the bytes go back to both ledgers (waking globally queued requests).
func (s *session) closeCursor(id uint32, c *cursor) {
	c.rows.Close() //nolint:errcheck // Close is idempotent and infallible here
	s.mem.Add(-c.mem)
	s.srv.global.release(c.mem)
	delete(s.cursors, id)
}

// cleanup releases everything the session holds; it runs however the
// session ends, so a dropped connection can never leak arenas, budget, or
// the reader goroutine.
func (s *session) cleanup() {
	s.closeOnce.Do(func() { close(s.closed) })
	s.cancelInflight()
	s.settleReserved()
	for id, c := range s.cursors {
		s.closeCursor(id, c)
	}
	s.conn.Close()
}
