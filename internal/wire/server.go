package wire

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"

	"infogram/internal/telemetry"
)

// Handler serves one accepted connection. The server closes the connection
// after the handler returns, so handlers own the full conversation.
type Handler interface {
	ServeConn(c *Conn)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(c *Conn)

// ServeConn calls f(c).
func (f HandlerFunc) ServeConn(c *Conn) { f(c) }

// Server accepts TCP connections on one port and dispatches each to a
// Handler in its own goroutine. Every service in this repository — the
// GRAM gatekeeper, the MDS GRIS/GIIS, and InfoGram — is a wire.Server with
// a protocol-specific handler; InfoGram's architectural claim is precisely
// that one such server suffices where the baseline needs two (paper §4,
// Figures 2 and 4).
type Server struct {
	handler Handler
	instr   ServerInstruments

	mu       sync.Mutex
	ln       net.Listener
	closed   bool
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	accepted atomic.Int64
}

// ServerInstruments holds the optional telemetry the accept loop feeds.
// Nil metrics are no-ops, so a zero value disables instrumentation.
type ServerInstruments struct {
	// Accepted counts accepted connections.
	Accepted *telemetry.Counter
	// Active gauges connections whose handler is still running.
	Active *telemetry.Gauge
}

// Instrument attaches telemetry to the accept loop. Call before Listen.
func (s *Server) Instrument(i ServerInstruments) { s.instr = i }

// NewServer returns a server that will dispatch connections to h.
func NewServer(h Handler) *Server {
	return &Server{handler: h, conns: make(map[net.Conn]struct{})}
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("wire: server closed")

// Listen binds addr ("host:port"; use ":0" for an ephemeral port) and
// starts the accept loop in a background goroutine. It returns the bound
// address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Addr returns the listener address, or "" before Listen.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// AcceptedConns reports how many connections the server has accepted. The
// Figure 2 vs Figure 4 experiments use this to count per-workflow
// connections across baseline and unified deployments.
func (s *Server) AcceptedConns() int64 { return s.accepted.Load() }

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.accepted.Add(1)
		s.instr.Accepted.Inc()
		s.instr.Active.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c := NewConn(nc)
			defer func() {
				c.Close() // closes nc and hands the frame buffers back
				s.mu.Lock()
				delete(s.conns, nc)
				s.mu.Unlock()
				s.instr.Active.Dec()
			}()
			s.handler.ServeConn(c)
		}()
	}
}

// Close stops accepting, closes all live connections, and waits for
// handlers to return.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
