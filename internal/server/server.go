package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"maybms/internal/sql"
)

// Config tunes one Server. The zero value serves with the defaults below.
type Config struct {
	// MaxConns caps concurrent connections; further accepts are answered
	// with an ErrTooManyConns frame and closed. Default 256.
	MaxConns int
	// SessionBudget caps the estimated retained bytes of one session's open
	// cursors; a result pushing the session over is rejected with
	// ErrMemBudget. Default 256 MiB.
	SessionBudget int64
	// GlobalBudget caps retained result bytes across all sessions. A result
	// over the remaining global budget queues until other sessions free
	// memory or the request deadline passes. Default 1 GiB.
	GlobalBudget int64
	// RequestTimeout bounds one request: it is the budget-queue deadline and
	// the write deadline of the response. Default 30s.
	RequestTimeout time.Duration
	// FetchBatch caps rows per OpRows frame regardless of what the client
	// asks for; a frame also never holds more rows than fit in MaxFrame.
	// Default 4096.
	FetchBatch int
	// Logf receives one line per connection-level event (accepted, rejected,
	// protocol errors). Nil logs through the standard logger; use a no-op
	// func in tests.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.SessionBudget <= 0 {
		c.SessionBudget = 256 << 20
	}
	if c.GlobalBudget <= 0 {
		c.GlobalBudget = 1 << 30
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.FetchBatch <= 0 {
		c.FetchBatch = 4096
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server serves one sql.DB over TCP. Connections are independent sessions;
// reads run lock-free on snapshots, writes serialize through the DB. Start
// it with Serve, stop it with Shutdown (graceful) or Close (abrupt).
type Server struct {
	db  *sql.DB
	cfg Config

	global *ledger

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	conns    int

	draining atomic.Bool
	done     chan struct{} // closed when Serve returns
}

// New wraps db in a server with the given configuration. The caller keeps
// ownership of the DB (and its store); Shutdown does not close it.
func New(db *sql.DB, cfg Config) *Server {
	c := cfg.withDefaults()
	return &Server{
		db:       db,
		cfg:      c,
		global:   newLedger(c.GlobalBudget),
		sessions: make(map[*session]struct{}),
		done:     make(chan struct{}),
	}
}

// Listen binds addr and serves on it; it returns once the listener is bound,
// with serving continuing on a background goroutine whose exit is reported
// through Shutdown. Use Serve directly for a caller-owned listener.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(ln) //nolint:errcheck // Serve's error surfaces via Shutdown logging
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Shutdown closes it. Each connection
// runs its session on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	defer close(s.done)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil // Shutdown closed the listener
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.admit(conn)
	}
}

// admit enforces the connection limit and drain state, then starts a session.
func (s *Server) admit(conn net.Conn) {
	refuse := func(code uint16, msg string) {
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		WriteFrame(conn, OpErr, errPayload(code, msg)) //nolint:errcheck // refusing anyway
		conn.Close()
	}
	if s.draining.Load() {
		refuse(ErrShutdown, "server is draining")
		return
	}
	s.mu.Lock()
	if s.conns >= s.cfg.MaxConns {
		s.mu.Unlock()
		s.cfg.Logf("maybmsd: refused %s: connection limit %d reached", conn.RemoteAddr(), s.cfg.MaxConns)
		refuse(ErrTooManyConns, fmt.Sprintf("connection limit %d reached", s.cfg.MaxConns))
		return
	}
	s.conns++
	sess := newSession(s, conn)
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	go func() {
		defer s.drop(sess)
		sess.serve()
	}()
}

// drop unregisters a finished session.
func (s *Server) drop(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.conns--
	s.mu.Unlock()
}

// Shutdown drains the server: the listener closes (no new connections),
// sessions finish the request they are processing, answer anything further
// with ErrShutdown, release their cursors' arenas, and disconnect. When ctx
// expires first, remaining connections are closed forcibly. Shutdown returns
// once every session is gone.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for sess := range s.sessions {
		sess.drain()
	}
	s.mu.Unlock()

	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		n := s.conns
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			s.mu.Lock()
			for sess := range s.sessions {
				sess.cancelInflight()
				sess.conn.Close()
			}
			s.mu.Unlock()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close shuts down without grace: listener and every connection close now.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// GlobalUsed reports the bytes currently charged to the global budget.
func (s *Server) GlobalUsed() int64 { return s.global.Used() }

// errPayload builds an OpErr payload.
func errPayload(code uint16, msg string) []byte {
	var w WBuf
	w.U16(code)
	w.Str(msg)
	return w.B
}
