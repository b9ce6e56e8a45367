// Package server is the serving layer of the world-set engine: a TCP server
// speaking a small length-prefixed wire protocol over the session API of
// internal/sql (DB → Prepared → Rows), so the probabilistic database runs as
// a network service. Each connection is one session — its own prepared
// statements, its own cursors, its own pooled-arena results — while every
// session reads the same store through O(1) snapshots; writes (MATERIALIZE,
// DROP) serialize through the DB's writer path. The frame format is
// specified in docs/wire-protocol.md; internal/server/client is the matching
// Go client.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"maybms/internal/engine"
	"maybms/internal/relation"
)

// Magic opens every connection (the OpHello payload) and ProtoVersion is the
// frame-format version the handshake checks. A server speaks exactly one
// version and refuses every other; changes to the protocol bump it. v2 added
// OpCancel and the ErrCanceled error code; v3 sends ROWS as columnar pages
// (appendPage).
const (
	Magic        = "MYBM"
	ProtoVersion = 3
)

// MaxFrame bounds a frame's declared payload length. A length above it is a
// protocol error answered with a clean error frame — never an allocation:
// oversized lengths are exactly how a malicious or corrupted peer would
// drive the server out of memory.
const MaxFrame = 16 << 20

// Opcodes. Requests run below 0x80, responses at or above it; OpErr is the
// error response to any request.
const (
	OpHello       byte = 0x01 // magic + u16 version
	OpPrepare     byte = 0x02 // str sql
	OpExec        byte = 0x03 // u32 stmt, u16 nargs, values
	OpFetch       byte = 0x04 // u32 cursor, u32 maxRows
	OpCloseCursor byte = 0x05 // u32 cursor
	OpCloseStmt   byte = 0x06 // u32 stmt
	OpExplain     byte = 0x07 // str sql
	OpMaterialize byte = 0x08 // str res, str sql, u16 nargs, values
	OpDrop        byte = 0x09 // str rel
	OpCatalog     byte = 0x0A // empty
	OpPing        byte = 0x0B // empty
	// OpCancel (v2) is the only out-of-band request: it carries no payload,
	// gets no response, and asks the server to cancel the EXEC or MATERIALIZE
	// currently running on this connection (a no-op when none is). The
	// canceled request itself answers OpErr/ErrCanceled.
	OpCancel byte = 0x0C

	OpOK           byte = 0x80 // empty
	OpHelloOK      byte = 0x81 // u16 version, str banner
	OpPrepared     byte = 0x82 // u32 stmt, u16 nparams, u16 ncols, cols
	OpExecOK       byte = 0x83 // u32 cursor, u8 mode, u32 nrows, stats, u16 ncols, cols
	OpRows         byte = 0x84 // u8 done, u8 hasConf, u32 n, page
	OpExplained    byte = 0x87 // str text
	OpMaterialized byte = 0x88 // stats
	OpCatalogR     byte = 0x8A // u32 nrels, per rel: str name, u16 nattrs, attrs, stats, u32 placeholders
	OpErr          byte = 0xFF // u16 code, str message
)

// Error codes carried by OpErr frames. They are part of the wire contract:
// clients branch on the code (a memory-budget rejection is retryable, a
// protocol error is not), so codes are stable across releases — new ones are
// appended, never renumbered.
const (
	ErrProtocol      uint16 = 1  // malformed frame, bad handshake, unknown opcode
	ErrSQL           uint16 = 2  // parse/plan/execution error (message has detail)
	ErrUnknownStmt   uint16 = 3  // EXEC/CLOSE of a statement id this session never prepared
	ErrUnknownCursor uint16 = 4  // FETCH/CLOSE of a cursor id not open on this session
	ErrMemBudget     uint16 = 5  // result rejected: per-session or global memory budget
	ErrTooManyConns  uint16 = 6  // connection limit reached; retry later
	ErrShutdown      uint16 = 7  // server draining; reconnect elsewhere
	ErrTimeout       uint16 = 8  // request deadline exceeded (includes budget-queue waits)
	ErrInternal      uint16 = 9  // server-side defect (contained panic); never the client's fault
	ErrCanceled      uint16 = 10 // query canceled by OpCancel or connection teardown (v2)
)

// errName renders an error code for messages and logs.
func errName(code uint16) string {
	switch code {
	case ErrProtocol:
		return "protocol"
	case ErrSQL:
		return "sql"
	case ErrUnknownStmt:
		return "unknown-statement"
	case ErrUnknownCursor:
		return "unknown-cursor"
	case ErrMemBudget:
		return "memory-budget"
	case ErrTooManyConns:
		return "too-many-connections"
	case ErrShutdown:
		return "shutting-down"
	case ErrTimeout:
		return "timeout"
	case ErrCanceled:
		return "canceled"
	}
	return "internal"
}

// WireError is a typed error frame as seen by the client side.
type WireError struct {
	Code uint16
	Msg  string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("maybmsd: %s: %s", errName(e.Code), e.Msg)
}

// Value tags encode relation.Value kinds on the wire.
const (
	tagBottom      byte = 0
	tagInt         byte = 1
	tagString      byte = 2
	tagPlaceholder byte = 3
)

// RowsHeader is the fixed head of a ROWS payload: u8 done, u8 hasConf, u32 n.
const RowsHeader = 6

// RowBytes is the bytes one row adds to a ROWS page: 4 per column, plus 8
// for the confidence.
func RowBytes(ncols int, hasConf bool) int {
	n := 4 * ncols
	if hasConf {
		n += 8
	}
	return n
}

// appendPage appends a ROWS payload: the header with done = 0 (the caller
// patches byte 0 on the last page), then each column as n packed big-endian
// i32 engine codes (a '?' field is the reserved code -1), then n f64
// confidences when hasConf. cols and confs are a sql.Rows block.
func appendPage(b []byte, hasConf bool, n int, cols [][]int32, confs []float64) []byte {
	var conf byte
	if hasConf {
		conf = 1
	}
	b = binary.BigEndian.AppendUint32(append(b, 0, conf), uint32(n))
	off := len(b)
	body := RowBytes(len(cols), hasConf) * n
	b = slices.Grow(b, body)[:off+body]
	for _, col := range cols {
		out := b[off : off+4*n]
		for i, v := range col[:n] {
			binary.BigEndian.PutUint32(out[4*i:], uint32(v))
		}
		off += 4 * n
	}
	if hasConf {
		out := b[off : off+8*n]
		for i, f := range confs[:n] {
			binary.BigEndian.PutUint64(out[8*i:], math.Float64bits(f))
		}
	}
	return b
}

// WriteFrame writes one frame: u32 big-endian length (opcode + payload),
// the opcode byte, the payload.
func WriteFrame(w io.Writer, op byte, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = op
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame. A declared length of zero (no opcode) or above
// MaxFrame is returned as an error before anything is allocated or read.
func ReadFrame(r io.Reader) (op byte, payload []byte, err error) {
	return ReadFrameInto(r, nil)
}

// ReadFrameInto is ReadFrame reading the payload into buf's storage when
// its capacity suffices; the payload then aliases buf, so passing the
// previous payload back reuses it.
func ReadFrameInto(r io.Reader, buf []byte) (op byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 {
		return 0, nil, fmt.Errorf("frame length 0 (missing opcode)")
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("frame length %d exceeds the %d-byte limit", n, MaxFrame)
	}
	if cap(buf) < int(n-1) {
		buf = make([]byte, n-1)
	}
	buf = buf[:n-1]
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return 0, nil, fmt.Errorf("truncated frame: %w", err)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("truncated frame: %w", err)
	}
	return hdr[4], buf, nil
}

// WBuf builds a frame payload in the field encodings of
// docs/wire-protocol.md. It and RBuf are the one payload codec: the server
// and internal/server/client both encode and decode through them.
type WBuf struct{ B []byte }

func (w *WBuf) U8(v byte)     { w.B = append(w.B, v) }
func (w *WBuf) U16(v uint16)  { w.B = binary.BigEndian.AppendUint16(w.B, v) }
func (w *WBuf) U32(v uint32)  { w.B = binary.BigEndian.AppendUint32(w.B, v) }
func (w *WBuf) I64(v int64)   { w.B = binary.BigEndian.AppendUint64(w.B, uint64(v)) }
func (w *WBuf) F64(v float64) { w.B = binary.BigEndian.AppendUint64(w.B, math.Float64bits(v)) }
func (w *WBuf) Str(s string) {
	w.U32(uint32(len(s)))
	w.B = append(w.B, s...)
}

func (w *WBuf) Value(v relation.Value) {
	switch v.Kind() {
	case relation.KindInt:
		w.U8(tagInt)
		w.I64(v.AsInt())
	case relation.KindString:
		w.U8(tagString)
		w.Str(v.AsString())
	case relation.KindPlaceholder:
		w.U8(tagPlaceholder)
	default:
		w.U8(tagBottom)
	}
}

func (w *WBuf) Stats(st engine.Stats) {
	w.I64(int64(st.NumComp))
	w.I64(int64(st.NumCompGT1))
	w.I64(int64(st.CSize))
	w.I64(int64(st.RSize))
}

// RBuf decodes a frame payload. Errors are sticky: the first underflow or
// malformed field poisons the reader, and callers check Err (or Done) once at
// the end — a truncated payload can never read out of bounds or be
// half-applied.
type RBuf struct {
	B   []byte
	off int
	Err error
}

func (r *RBuf) fail() {
	if r.Err == nil {
		r.Err = fmt.Errorf("payload truncated at byte %d", r.off)
	}
}

func (r *RBuf) Take(n int) []byte {
	if r.Err != nil || n < 0 || r.off+n > len(r.B) {
		r.fail()
		return nil
	}
	out := r.B[r.off : r.off+n]
	r.off += n
	return out
}

func (r *RBuf) U8() byte {
	b := r.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *RBuf) U16() uint16 {
	b := r.Take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *RBuf) U32() uint32 {
	b := r.Take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *RBuf) I64() int64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

func (r *RBuf) F64() float64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

func (r *RBuf) Str() string {
	n := int(r.U32())
	if r.Err == nil && n > len(r.B)-r.off {
		// Declared string length beyond the payload: poison instead of
		// allocating on attacker-controlled sizes.
		r.fail()
		return ""
	}
	return string(r.Take(n))
}

func (r *RBuf) Value() relation.Value {
	switch tag := r.U8(); tag {
	case tagInt:
		return relation.Int(r.I64())
	case tagString:
		return relation.String(r.Str())
	case tagPlaceholder:
		return relation.Placeholder()
	case tagBottom:
		return relation.Bottom()
	default:
		if r.Err == nil {
			r.Err = fmt.Errorf("unknown value tag %d at byte %d", tag, r.off-1)
		}
		return relation.Bottom()
	}
}

func (r *RBuf) Stats() engine.Stats {
	return engine.Stats{
		NumComp:    int(r.I64()),
		NumCompGT1: int(r.I64()),
		CSize:      int(r.I64()),
		RSize:      int(r.I64()),
	}
}

// Done reports leftover bytes as an error: every request payload must be
// consumed exactly, so garbage appended to a well-formed request is caught.
func (r *RBuf) Done() error {
	if r.Err != nil {
		return r.Err
	}
	if r.off != len(r.B) {
		return fmt.Errorf("%d trailing bytes after payload", len(r.B)-r.off)
	}
	return nil
}
