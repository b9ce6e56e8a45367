// Package client is the Go client of the maybmsd wire protocol
// (internal/server, docs/wire-protocol.md). It mirrors the session API shape
// of internal/sql — Dial → Conn, Prepare → Stmt, Query → Rows — so code
// written against a local DB ports to a remote server by swapping the
// constructor; wsdcli's -connect mode and the load generator run on it.
//
// A Conn is one server session. The protocol is synchronous per connection,
// and the Conn serializes its requests with a mutex, so a Conn is safe for
// concurrent goroutines but offers no pipelining — open more connections for
// parallelism (that is what makes the server scale, each connection being an
// independent snapshot/arena session).
package client

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/server"
	"maybms/internal/sql"
)

// DefaultFetch is the default FETCH batch size: how many tuples Rows.Next
// pulls per round trip.
const DefaultFetch = 1024

// DefaultDialTimeout bounds Dial's TCP connect.
const DefaultDialTimeout = 10 * time.Second

// Conn is one connection to a maybmsd server. The mu serializes whole
// request/response rounds; wmu serializes raw frame writes underneath it, so
// Cancel can inject its out-of-band frame while a round is blocked reading.
type Conn struct {
	mu     sync.Mutex
	wmu    sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	fetch  int
	closed atomic.Bool
	banner string
}

// Option tunes Dial.
type Option func(*Conn)

// WithFetchBatch sets the tuples requested per FETCH round trip.
func WithFetchBatch(n int) Option {
	return func(c *Conn) {
		if n > 0 {
			c.fetch = n
		}
	}
}

// Dial connects and performs the protocol handshake.
func Dial(addr string, opts ...Option) (*Conn, error) {
	c := &Conn{fetch: DefaultFetch}
	for _, o := range opts {
		o(c)
	}
	if err := c.connect(addr); err != nil {
		return nil, err
	}
	return c, nil
}

// connect performs the TCP connect plus handshake on c.
func (c *Conn) connect(addr string) error {
	nc, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
	if err != nil {
		return fmt.Errorf("client: dialing %s: %w", addr, err)
	}
	c.conn = nc
	c.br = bufio.NewReaderSize(nc, 32<<10)
	c.bw = bufio.NewWriterSize(nc, 32<<10)
	var w server.WBuf
	w.B = append(w.B, server.Magic...)
	w.U16(server.ProtoVersion)
	payload, err := c.round(server.OpHello, w.B, server.OpHelloOK)
	if err != nil {
		nc.Close()
		return err
	}
	r := server.RBuf{B: payload}
	v := r.U16()
	if v != server.ProtoVersion {
		nc.Close()
		return fmt.Errorf("client: server answered protocol version %d; this client reads only version %d ROWS pages", v, server.ProtoVersion)
	}
	c.banner = r.Str()
	return nil
}

// Banner returns the server identification string from the handshake.
func (c *Conn) Banner() string { return c.banner }

// Close closes the connection. Open cursors and statements die with the
// session server-side (their arenas are released there). Close is safe to
// call from any goroutine, including while another goroutine's request is in
// flight — that request fails with a read error, and server-side the
// disconnect cancels it.
func (c *Conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	return c.conn.Close()
}

// round sends one request frame and reads the response, translating OpErr
// into *server.WireError. Callers pass the expected response opcode.
func (c *Conn) round(op byte, payload []byte, want byte) ([]byte, error) {
	return c.roundInto(op, payload, want, nil)
}

// roundInto is round reading the response into buf's storage when it is
// large enough (see server.ReadFrameInto).
func (c *Conn) roundInto(op byte, payload []byte, want byte, buf []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, fmt.Errorf("client: connection is closed")
	}
	if err := c.writeFrame(op, payload); err != nil {
		return nil, fmt.Errorf("client: writing request: %w", err)
	}
	rop, rpayload, err := server.ReadFrameInto(c.br, buf)
	if err != nil {
		return nil, fmt.Errorf("client: reading response: %w", err)
	}
	if rop == server.OpErr {
		r := server.RBuf{B: rpayload}
		code := r.U16()
		msg := r.Str()
		return nil, &server.WireError{Code: code, Msg: msg}
	}
	if rop != want {
		return nil, fmt.Errorf("client: unexpected response opcode 0x%02x (want 0x%02x)", rop, want)
	}
	return rpayload, nil
}

// writeFrame writes and flushes one frame under wmu — the only path touching
// bw, so rounds and the out-of-band Cancel interleave whole frames, never
// bytes.
func (c *Conn) writeFrame(op byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := server.WriteFrame(c.bw, op, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Cancel asks the server to abort the EXEC currently in flight on this
// connection (a server-side no-op when none is). It is the one request meant
// to be issued from another goroutine while a Query round is blocked waiting
// for its response; the canceled Query then returns a *server.WireError with
// code ErrCanceled. Cancel itself gets no response frame.
func (c *Conn) Cancel() error {
	if err := c.writeFrame(server.OpCancel, nil); err != nil {
		return fmt.Errorf("client: sending CANCEL: %w", err)
	}
	return nil
}

// Ping round-trips an empty request.
func (c *Conn) Ping() error {
	_, err := c.round(server.OpPing, nil, server.OpOK)
	return err
}

// Stmt is a statement prepared on the server.
type Stmt struct {
	c        *Conn
	id       uint32
	text     string
	cols     []string
	nparams  int
	closed   bool
	autoDrop bool // close the server statement when its one-shot Rows closes
}

// Prepare compiles a statement on the server; the plan caches server-side,
// and the returned Stmt executes it any number of times with bound args.
func (c *Conn) Prepare(text string) (*Stmt, error) {
	var w server.WBuf
	w.Str(text)
	payload, err := c.round(server.OpPrepare, w.B, server.OpPrepared)
	if err != nil {
		return nil, err
	}
	r := server.RBuf{B: payload}
	st := &Stmt{c: c, id: r.U32(), text: text}
	st.nparams = int(r.U16())
	ncols := int(r.U16())
	for i := 0; i < ncols; i++ {
		st.cols = append(st.cols, r.Str())
	}
	if r.Err != nil {
		return nil, fmt.Errorf("client: malformed PREPARED response: %w", r.Err)
	}
	return st, nil
}

// Text returns the statement's SQL text.
func (s *Stmt) Text() string { return s.text }

// Columns returns the output attribute names.
func (s *Stmt) Columns() []string { return s.cols }

// NumParams returns the number of ? placeholders the statement binds.
func (s *Stmt) NumParams() int { return s.nparams }

// Close releases the server-side statement.
func (s *Stmt) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var w server.WBuf
	w.U32(s.id)
	_, err := s.c.round(server.OpCloseStmt, w.B, server.OpOK)
	return err
}

// Query executes the statement with the given arguments (int and string
// forms, or relation.Value). The result streams through the returned Rows in
// FETCH batches; always Close it — that is what releases the server-side
// result arena early (exhausting the rows releases it too).
func (s *Stmt) Query(args ...any) (*Rows, error) {
	if s.closed {
		return nil, fmt.Errorf("client: statement is closed")
	}
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	var w server.WBuf
	w.U32(s.id)
	w.U16(uint16(len(vals)))
	for _, v := range vals {
		w.Value(v)
	}
	payload, err := s.c.round(server.OpExec, w.B, server.OpExecOK)
	if err != nil {
		return nil, err
	}
	r := server.RBuf{B: payload}
	rows := &Rows{c: s.c, stmt: s}
	rows.id = r.U32()
	rows.mode = sql.Mode(r.U8())
	rows.total = int(r.U32())
	rows.stats = r.Stats()
	ncols := int(r.U16())
	for i := 0; i < ncols; i++ {
		rows.cols = append(rows.cols, r.Str())
	}
	if r.Err != nil {
		return nil, fmt.Errorf("client: malformed EXECOK response: %w", r.Err)
	}
	return rows, nil
}

// Query prepares and executes a statement in one call; the server-side
// statement is released when the returned Rows closes.
func (c *Conn) Query(text string, args ...any) (*Rows, error) {
	st, err := c.Prepare(text)
	if err != nil {
		return nil, err
	}
	rows, err := st.Query(args...)
	if err != nil {
		st.Close() //nolint:errcheck // best-effort release of the one-shot stmt
		return nil, err
	}
	st.autoDrop = true
	return rows, nil
}

// Explain renders the server's Section 5 SQL rewriting of the statement.
func (c *Conn) Explain(text string) (string, error) {
	var w server.WBuf
	w.Str(text)
	payload, err := c.round(server.OpExplain, w.B, server.OpExplained)
	if err != nil {
		return "", err
	}
	r := server.RBuf{B: payload}
	out := r.Str()
	if r.Err != nil {
		return "", fmt.Errorf("client: malformed EXPLAINED response: %w", r.Err)
	}
	return out, nil
}

// Materialize executes a plain statement on the server and installs its
// result relation under res (the remote DB.Materialize; the write serializes
// through the server's writer path). It returns the result's representation
// statistics.
func (c *Conn) Materialize(res, text string, args ...any) (engine.Stats, error) {
	vals, err := toValues(args)
	if err != nil {
		return engine.Stats{}, err
	}
	var w server.WBuf
	w.Str(res)
	w.Str(text)
	w.U16(uint16(len(vals)))
	for _, v := range vals {
		w.Value(v)
	}
	payload, err := c.round(server.OpMaterialize, w.B, server.OpMaterialized)
	if err != nil {
		return engine.Stats{}, err
	}
	r := server.RBuf{B: payload}
	st := r.Stats()
	if r.Err != nil {
		return engine.Stats{}, fmt.Errorf("client: malformed MATERIALIZED response: %w", r.Err)
	}
	return st, nil
}

// DropRelation removes a user relation from the server's store. OK means the
// drop is committed (and, on a durable server, logged); an unknown relation
// or a commit the log could not capture comes back as a *server.WireError.
func (c *Conn) DropRelation(rel string) error {
	var w server.WBuf
	w.Str(rel)
	_, err := c.round(server.OpDrop, w.B, server.OpOK)
	return err
}

// RelInfo describes one relation of the server's catalog.
type RelInfo = sql.RelInfo

// Catalog lists the server's user relations with schema and representation
// statistics.
func (c *Conn) Catalog() ([]RelInfo, error) {
	payload, err := c.round(server.OpCatalog, nil, server.OpCatalogR)
	if err != nil {
		return nil, err
	}
	r := server.RBuf{B: payload}
	n := int(r.U32())
	out := make([]RelInfo, 0, n)
	for i := 0; i < n && r.Err == nil; i++ {
		ri := RelInfo{Name: r.Str()}
		nattrs := int(r.U16())
		for j := 0; j < nattrs; j++ {
			ri.Attrs = append(ri.Attrs, r.Str())
		}
		ri.Stats = r.Stats()
		ri.Placeholders = int(r.U32())
		out = append(out, ri)
	}
	if r.Err != nil {
		return nil, fmt.Errorf("client: malformed CATALOG response: %w", r.Err)
	}
	return out, nil
}

// toValues converts Go arguments to wire values (the client-side mirror of
// the session API's argument conversion).
func toValues(args []any) ([]relation.Value, error) {
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
			return nil, fmt.Errorf("client: cannot bind argument %d of type %T (want int, string or relation.Value)", i+1, a)
		}
	}
	return out, nil
}
