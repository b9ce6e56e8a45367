package client

import (
	"bufio"
	"encoding/binary"
	"math"
	"net"
	"strings"
	"testing"

	"maybms/internal/engine"
	"maybms/internal/server"
)

// rowsPayload builds a v3 ROWS payload: the header, then the cells column by
// column, then the confidences when confs is non-nil.
func rowsPayload(done bool, cols [][]int32, confs []float64) []byte {
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	} else {
		n = len(confs)
	}
	var b []byte
	b = append(b, boolByte(done), boolByte(confs != nil))
	b = binary.BigEndian.AppendUint32(b, uint32(n))
	for _, col := range cols {
		for _, v := range col {
			b = binary.BigEndian.AppendUint32(b, uint32(v))
		}
	}
	for _, f := range confs {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func TestDecodePage(t *testing.T) {
	cols := [][]int32{{1, -1, 3}, {40, 50, -1}}
	confs := []float64{0.25, 1, 0.5}
	p, err := decodePage(rowsPayload(true, cols, confs), 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.n != 3 || !p.done || !p.hasConf {
		t.Fatalf("page n=%d done=%v hasConf=%v", p.n, p.done, p.hasConf)
	}
	for c, col := range cols {
		for row, want := range col {
			if got := p.cell(row, c); got != want {
				t.Fatalf("cell(%d,%d) = %d, want %d", row, c, got, want)
			}
		}
	}
	for row, want := range confs {
		if got := p.conf(row); got != want {
			t.Fatalf("conf(%d) = %v, want %v", row, got, want)
		}
	}

	good := rowsPayload(false, cols, nil)
	for _, tc := range []struct {
		name      string
		payload   []byte
		ncols     int
		remaining int
		want      string
	}{
		{"short header", good[:5], 2, 3, "shorter than"},
		{"truncated body", good[:len(good)-1], 2, 3, "payload has"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), 2, 3, "payload has"},
		{"more rows than owed", good, 2, 2, "still owed"},
		{"column count mismatch", good, 3, 3, "payload has"},
		{"bad flag", append([]byte{2}, good[1:]...), 2, 3, "bad flags"},
	} {
		if _, err := decodePage(tc.payload, tc.ncols, tc.remaining, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// FuzzRowsPage throws arbitrary ROWS payloads at the page decoder for
// arbitrary column counts and rows still owed: it must never panic or read
// out of bounds, and a page it accepts must be exactly the declared shape.
func FuzzRowsPage(f *testing.F) {
	f.Add(rowsPayload(true, [][]int32{{1, -1}, {2, 3}}, []float64{0.5, 1}), uint16(2), uint32(2))
	f.Add(rowsPayload(false, [][]int32{{7}}, nil), uint16(1), uint32(10))
	f.Add(rowsPayload(true, nil, nil), uint16(0), uint32(0))
	f.Add([]byte{0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(50), uint32(1<<31))
	f.Fuzz(func(t *testing.T, payload []byte, ncols uint16, remaining uint32) {
		p, err := decodePage(payload, int(ncols), int(remaining), nil)
		if err != nil {
			return
		}
		if p.n > int(remaining) {
			t.Fatalf("accepted %d rows with %d owed", p.n, remaining)
		}
		if want := server.RowsHeader + p.n*server.RowBytes(int(ncols), p.hasConf); len(payload) != want {
			t.Fatalf("accepted a %d-byte payload for %d rows (want %d bytes)", len(payload), p.n, want)
		}
		for row := 0; row < p.n; row++ {
			for c := 0; c < int(ncols); c++ {
				at := server.RowsHeader + 4*(c*p.n+row)
				if got, want := p.cell(row, c), int32(binary.BigEndian.Uint32(payload[at:])); got != want {
					t.Fatalf("cell(%d,%d) = %d, want %d", row, c, got, want)
				}
			}
			p.conf(row)
		}
	})
}

// fakeServer accepts one connection and answers each request frame with the
// next scripted response (opcode + payload), then hangs up.
func fakeServer(t *testing.T, script ...[]byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for _, resp := range script {
			if _, _, err := server.ReadFrame(br); err != nil {
				return
			}
			if err := server.WriteFrame(c, resp[0], resp[1:]); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

func helloOK(version uint16) []byte {
	w := server.WBuf{B: []byte{server.OpHelloOK}}
	w.U16(version)
	w.Str("fake")
	return w.B
}

// execOK opens cursor 1: a plain result of total rows over ncols columns.
func execOK(total, ncols int) []byte {
	w := server.WBuf{B: []byte{server.OpExecOK}}
	w.U32(1)
	w.U8(0)
	w.U32(uint32(total))
	w.Stats(engine.Stats{})
	w.U16(uint16(ncols))
	for i := 0; i < ncols; i++ {
		w.Str("A")
	}
	return w.B
}

func rowsFrame(done bool, col []int32) []byte {
	return append([]byte{server.OpRows}, rowsPayload(done, [][]int32{col}, nil)...)
}

// TestRowsRejectsBadPages drives Rows against scripted servers: a page with
// more rows than the cursor still owes, and an empty page before the end
// (whose error counts the rows already received).
func TestRowsRejectsBadPages(t *testing.T) {
	prepared := func() []byte {
		w := server.WBuf{B: []byte{server.OpPrepared}}
		w.U32(1)
		w.U16(0)
		w.U16(1)
		w.Str("A")
		return w.B
	}
	for _, tc := range []struct {
		name  string
		pages [][]byte
		want  string
	}{
		{"more rows than owed", [][]byte{rowsFrame(false, []int32{1, 2}), rowsFrame(true, []int32{3, 4, 5})}, "2 still owed"},
		{"empty page mid-stream", [][]byte{rowsFrame(false, []int32{1, 2}), rowsFrame(false, nil)}, "(2 of 4 rows)"},
	} {
		script := append([][]byte{helloOK(server.ProtoVersion), prepared(), execOK(4, 1)}, tc.pages...)
		c, err := Dial(fakeServer(t, script...))
		if err != nil {
			t.Fatalf("%s: dial: %v", tc.name, err)
		}
		st, err := c.Prepare("SELECT A FROM R")
		if err != nil {
			t.Fatalf("%s: prepare: %v", tc.name, err)
		}
		rows, err := st.Query()
		if err != nil {
			t.Fatalf("%s: query: %v", tc.name, err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err == nil || !strings.Contains(err.Error(), tc.want) || n != 2 {
			t.Errorf("%s: %d rows, err = %v; want 2 rows, then an error mentioning %q", tc.name, n, err, tc.want)
		}
		c.Close()
	}
}

// TestDialRefusesOlderServer: a server that settles the handshake below
// version 3 would send row-layout pages this client cannot read.
func TestDialRefusesOlderServer(t *testing.T) {
	_, err := Dial(fakeServer(t, helloOK(2)))
	if err == nil || !strings.Contains(err.Error(), "protocol version 2") {
		t.Fatalf("dial of a v2 server: err = %v, want a protocol-version refusal", err)
	}
}
