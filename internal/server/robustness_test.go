package server_test

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"maybms/internal/engine"
	"maybms/internal/server"
	"maybms/internal/server/client"
	"maybms/internal/sql"
)

// This file attacks the wire protocol with raw TCP: truncated frames,
// oversized lengths, unknown opcodes and garbage payloads. The contract
// under test is the hard one for a server — whatever arrives, answer with a
// clean typed error frame (or just close), never panic, never wedge, and
// keep serving well-behaved clients.

// tinyStore is a minimal hand-built store — the robustness tests don't need
// census data, just a servable relation.
func tinyStore(t testing.TB) *engine.Store {
	t.Helper()
	s := engine.NewStore()
	if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 2, 3}, {4, 5, 6}}); err != nil {
		t.Fatalf("building tiny store: %v", err)
	}
	if err := s.SetUncertain("R", 0, "B", []int32{4, 7}, nil); err != nil {
		t.Fatalf("or-set: %v", err)
	}
	return s
}

// rawConn is a byte-level protocol peer.
type rawConn struct {
	t  testing.TB
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(t testing.TB, addr string) *rawConn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	c.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c, br: bufio.NewReader(c)}
}

func (r *rawConn) write(b []byte) {
	r.t.Helper()
	if _, err := r.c.Write(b); err != nil {
		r.t.Fatalf("raw write: %v", err)
	}
}

// frame builds a well-formed frame for op+payload.
func frame(op byte, payload []byte) []byte {
	b := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(b, uint32(1+len(payload)))
	b[4] = op
	copy(b[5:], payload)
	return b
}

// hello is a valid handshake frame.
func hello() []byte {
	payload := append([]byte(server.Magic), 0, server.ProtoVersion)
	return frame(server.OpHello, payload)
}

// readFrame reads one response; ok=false means the connection closed
// instead, which is also an acceptable answer to stream-level corruption.
func (r *rawConn) readFrame() (op byte, payload []byte, ok bool) {
	r.t.Helper()
	op, payload, err := server.ReadFrame(r.br)
	if err != nil {
		return 0, nil, false
	}
	return op, payload, true
}

// expectErr requires an OpErr frame with the given code.
func (r *rawConn) expectErr(code uint16) {
	r.t.Helper()
	op, payload, ok := r.readFrame()
	if !ok {
		r.t.Fatalf("connection closed, want error frame with code %d", code)
	}
	if op != server.OpErr {
		r.t.Fatalf("got opcode 0x%02x, want OpErr", op)
	}
	if len(payload) < 2 {
		r.t.Fatalf("error frame payload too short: %d bytes", len(payload))
	}
	if got := binary.BigEndian.Uint16(payload); got != code {
		msg := ""
		if len(payload) > 6 {
			msg = string(payload[6:])
		}
		r.t.Fatalf("error code %d, want %d (message: %q)", got, code, msg)
	}
}

// expectHelloOK consumes a successful handshake reply.
func (r *rawConn) expectHelloOK() {
	r.t.Helper()
	op, _, ok := r.readFrame()
	if !ok || op != server.OpHelloOK {
		r.t.Fatalf("handshake reply: op=0x%02x ok=%v, want OpHelloOK", op, ok)
	}
}

// TestProtocolRobustness drives the server with malformed streams. Each case
// runs on a fresh raw connection against one shared server; the final health
// check proves none of them hurt it.
func TestProtocolRobustness(t *testing.T) {
	db := sql.Open(tinyStore(t))
	defer db.Close()
	_, addr := startServer(t, db, server.Config{RequestTimeout: 2 * time.Second})

	t.Run("immediate close", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.c.Close()
	})

	t.Run("zero-length frame", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.write([]byte{0, 0, 0, 0})
		r.expectErr(server.ErrProtocol)
	})

	t.Run("oversized length", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB declared
		r.expectErr(server.ErrProtocol)
	})

	t.Run("length just over MaxFrame", func(t *testing.T) {
		r := dialRaw(t, addr)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], server.MaxFrame+1)
		r.write(hdr[:])
		r.expectErr(server.ErrProtocol)
	})

	t.Run("truncated frame then close", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.write([]byte{0, 0, 0, 100, server.OpHello, 1, 2, 3}) // 100 promised, 4 sent
		r.c.(*net.TCPConn).CloseWrite()
		// The server sees a truncated stream; an error frame or a close are
		// both clean outcomes — reading must terminate either way.
		r.readFrame()
	})

	t.Run("bad magic", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.write(frame(server.OpHello, []byte("NOPE\x00\x01")))
		r.expectErr(server.ErrProtocol)
	})

	t.Run("future protocol version", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.write(frame(server.OpHello, append([]byte(server.Magic), 0x7F, 0xFF)))
		r.expectErr(server.ErrProtocol)
	})

	t.Run("old protocol version", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.write(frame(server.OpHello, append([]byte(server.Magic), 0, 2)))
		r.expectErr(server.ErrProtocol)
	})

	t.Run("first frame not HELLO", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.write(frame(server.OpPing, nil))
		r.expectErr(server.ErrProtocol)
	})

	t.Run("unknown opcode keeps session alive", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.write(hello())
		r.expectHelloOK()
		r.write(frame(0x7E, []byte{1, 2, 3}))
		r.expectErr(server.ErrProtocol)
		// Framing was never corrupted, so the session keeps serving.
		r.write(frame(server.OpPing, nil))
		if op, _, ok := r.readFrame(); !ok || op != server.OpOK {
			t.Fatalf("ping after unknown opcode: op=0x%02x ok=%v, want OpOK", op, ok)
		}
	})

	t.Run("garbage after well-formed payload", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.write(hello())
		r.expectHelloOK()
		r.write(frame(server.OpPing, []byte{9, 9, 9})) // PING takes no payload
		r.expectErr(server.ErrProtocol)
		r.write(frame(server.OpPing, nil))
		if op, _, ok := r.readFrame(); !ok || op != server.OpOK {
			t.Fatalf("ping after garbage payload: op=0x%02x ok=%v, want OpOK", op, ok)
		}
	})

	t.Run("truncated EXEC payload", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.write(hello())
		r.expectHelloOK()
		r.write(frame(server.OpExec, []byte{0, 0})) // u32 stmt id cut short
		r.expectErr(server.ErrProtocol)
	})

	t.Run("fetch of unknown cursor", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.write(hello())
		r.expectHelloOK()
		r.write(frame(server.OpFetch, []byte{0, 0, 0, 42, 0, 0, 0, 10}))
		r.expectErr(server.ErrUnknownCursor)
	})

	t.Run("exec of unknown statement", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.write(hello())
		r.expectHelloOK()
		r.write(frame(server.OpExec, []byte{0, 0, 0, 42, 0, 0}))
		r.expectErr(server.ErrUnknownStmt)
	})

	t.Run("string length past payload end", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.write(hello())
		r.expectHelloOK()
		// PREPARE with a declared 1 MiB SQL string and a 3-byte payload tail.
		r.write(frame(server.OpPrepare, []byte{0x00, 0x10, 0x00, 0x00, 'S', 'E', 'L'}))
		r.expectErr(server.ErrProtocol)
	})

	// After all of the above, a real client still gets real answers.
	t.Run("server still healthy", func(t *testing.T) {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		rows, err := c.Query("SELECT * FROM R WHERE A = 1")
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		got, err := renderAll(rows, false)
		if err != nil {
			t.Fatal(err)
		}
		if got != "A,B\n1,?\n" {
			t.Fatalf("result = %q, want the uncertain tuple (1, ?)", got)
		}
	})
}

// TestConnLimit checks the connection cap: the refused connection gets a
// typed ErrTooManyConns frame and admitted ones keep working.
func TestConnLimit(t *testing.T) {
	db := sql.Open(tinyStore(t))
	defer db.Close()
	_, addr := startServer(t, db, server.Config{MaxConns: 2})

	a, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// The third connection is refused with a typed frame before handshake.
	r := dialRaw(t, addr)
	r.expectErr(server.ErrTooManyConns)

	if err := a.Ping(); err != nil {
		t.Fatalf("admitted connection broken by the refusal: %v", err)
	}

	// Closing one admits a newcomer.
	b.Close()
	waitFor(t, func() bool {
		c, err := client.Dial(addr)
		if err != nil {
			return false
		}
		c.Close()
		return true
	}, "slot freed by a closed connection")
}

func waitFor(t testing.TB, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fuzzServerAddr lazily boots one shared server for the fuzz target.
var fuzzServer struct {
	once sync.Once
	addr string
}

func fuzzAddr(t testing.TB) string {
	fuzzServer.once.Do(func() {
		s := engine.NewStore()
		if _, err := s.AddRelation("R", []string{"A", "B"}, [][]int32{{1, 2, 3}, {4, 5, 6}}); err != nil {
			t.Fatalf("fuzz store: %v", err)
		}
		db := sql.Open(s)
		srv := server.New(db, server.Config{
			RequestTimeout: 500 * time.Millisecond,
			Logf:           func(string, ...any) {},
		})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("fuzz listen: %v", err)
		}
		fuzzServer.addr = addr.String()
	})
	return fuzzServer.addr
}

// FuzzProtocolStream throws arbitrary bytes at a live server — raw, and
// framed after a valid handshake — and requires only that the server never
// panics and always terminates the exchange (error frame, or close). Run
// with `go test -fuzz=FuzzProtocolStream ./internal/server`.
func FuzzProtocolStream(f *testing.F) {
	f.Add([]byte{})
	f.Add(hello())
	f.Add(append(hello(), frame(server.OpPing, nil)...))
	f.Add(append(hello(), frame(server.OpPrepare, []byte{0, 0, 0, 3, 'S', 'E', 'L'})...))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(frame(server.OpExec, []byte{0, 0, 0, 1, 0, 2, 1}))
	// A whole v3 FETCH exchange: statement 1 opens cursor 1, drained by FETCH
	// into one columnar page.
	var prep server.WBuf
	prep.Str("SELECT * FROM R WHERE A = 1")
	exchange := append(hello(), frame(server.OpPrepare, prep.B)...)
	exchange = append(exchange, frame(server.OpExec, []byte{0, 0, 0, 1, 0, 0})...)
	f.Add(append(exchange, frame(server.OpFetch, []byte{0, 0, 0, 1, 0, 0, 0, 0})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		addr := fuzzAddr(t)
		for _, prefix := range [][]byte{nil, hello()} {
			c, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				t.Skipf("dial: %v", err)
			}
			c.SetDeadline(time.Now().Add(time.Second))
			c.Write(prefix) //nolint:errcheck // the server may already have hung up
			c.Write(data)   //nolint:errcheck
			// Drain whatever comes back until the server closes or the
			// request deadline fires; a wedged server fails the deadline.
			io.Copy(io.Discard, c) //nolint:errcheck
			c.Close()
		}
	})
}
