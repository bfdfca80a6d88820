package ring

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
)

// ErrNotFound is the typed miss: a handler returns it (or wraps it) to
// answer StatusNotFound, and Client.Call returns it when a peer
// answered that way — so "the peer doesn't have it" is distinguishable
// from "the peer failed".
var ErrNotFound = errors.New("ring: not found")

// RemoteError is a peer's application-level failure (StatusError): the
// peer was reachable and answered, its handler failed. Callers use the
// distinction for health tracking — a RemoteError must not mark the
// peer down, a transport error should.
type RemoteError struct {
	Op   string
	Peer string
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("ring: %s: peer %s: %s", e.Op, e.Peer, e.Msg)
}

// Handler serves one operation. The context carries a request trace
// (adopted from the frame's traceparent) when the server has a flight
// recorder; the frame's RequestID names the originating client
// request. The returned body is the response payload; returning an
// error that Is(ErrNotFound) answers StatusNotFound, any other error
// StatusError with the message as body.
type Handler func(ctx context.Context, req *Frame) ([]byte, error)

// ServerOptions configures a frame-RPC server.
type ServerOptions struct {
	// Log receives connection lifecycle events (nil: silent).
	Log *slog.Logger
	// OnTrace, when non-nil, turns on server-side request tracing: each
	// inbound frame becomes a root span from its first byte (adopting the
	// propagated traceparent, so the trace ID matches the originating
	// request), its read a "frame.read" span, and the completed trace is
	// handed to OnTrace — normally a flight recorder's Complete.
	OnTrace func(*reqtrace.Trace)
	// Hello is the OpPing response body ({"ok":true} when empty) —
	// clusters answer it with their identity and routing-table version.
	Hello []byte
}

// Server accepts frame-RPC connections and dispatches frames to
// registered handlers, one connection per goroutine, frames on a
// connection served in order. Shutdown drains in-flight frames; Kill is
// the crash path used by failure tests.
type Server struct {
	opts     ServerOptions
	handlers [256]Handler
	opNames  [256]string

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	accepted int64 // connections ever tracked
	closing  bool
	drained  sync.WaitGroup
	frames   sync.WaitGroup // in-flight dispatches (drain unit: Shutdown)
}

// NewServer returns a server with OpPing pre-registered.
func NewServer(opts ServerOptions) *Server {
	s := &Server{opts: opts, conns: make(map[net.Conn]struct{})}
	hello := opts.Hello
	if len(hello) == 0 {
		hello = []byte(`{"ok":true}`)
	}
	s.Handle(OpPing, "ping", func(context.Context, *Frame) ([]byte, error) {
		return hello, nil
	})
	return s
}

// Handle registers the handler for one op code. Call before Serve.
func (s *Server) Handle(op byte, name string, h Handler) {
	s.handlers[op] = h
	s.opNames[op] = name
}

func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return false
	}
	s.conns[c] = struct{}{}
	s.accepted++
	s.drained.Add(1)
	return true
}

// Conns reports how many connections are open now and how many have
// been accepted since the server started.
func (s *Server) Conns() (open int, accepted int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns), s.accepted
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	if _, ok := s.conns[c]; ok {
		delete(s.conns, c)
		s.drained.Done()
	}
	s.mu.Unlock()
}

// Serve accepts connections on l until the listener closes. It blocks;
// a clean shutdown returns nil.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !s.track(conn) {
			conn.Close()
			continue
		}
		go func(c net.Conn) {
			defer s.untrack(c)
			defer c.Close()
			if err := s.serveConn(c); err != nil && s.opts.Log != nil {
				s.opts.Log.Debug("ring: connection closed", "remote", c.RemoteAddr().String(), "err", err)
			}
		}(conn)
	}
}

// readFrame returns the frame at the front of buf, reading from r for
// as long as ParseFrame reports it incomplete. It is the one read loop
// of the transport, under the server's connections and the client's
// calls alike: buf grows to the largest frame seen and is parsed
// incrementally, so a slow peer trickling a large replication batch
// costs no re-scans. The returned buffer replaces buf (it may have been
// reallocated); the frame occupies its first n bytes and Body aliases
// them. A peer that hangs up comes back as a bare io.EOF, which means
// "done" to a server and "no answer" to a client.
func readFrame(r io.Reader, buf []byte) (Frame, int, []byte, error) {
	for {
		if f, n, err := ParseFrame(buf); err != nil || n != 0 {
			return f, n, buf, err
		}
		if len(buf) == cap(buf) || cap(buf) < 16<<10 {
			// Full, or a client's buffer that a small request sized: no
			// frame is read through less than 16 KiB.
			grown := make([]byte, len(buf), max(2*cap(buf), 16<<10))
			copy(grown, buf)
			buf = grown
		}
		got, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+got]
		if got == 0 {
			if err == nil {
				err = io.ErrNoProgress
			}
			return Frame{}, 0, buf, err
		}
	}
}

// stampedReader remembers when reads delivered bytes: first since it was
// reset, and last.
type stampedReader struct {
	r           io.Reader
	first, last time.Time
}

func (r *stampedReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if n > 0 {
		r.last = time.Now()
		if r.first.IsZero() {
			r.first = r.last
		}
	}
	return n, err
}

// serveConn reads frames off one connection and answers each in order.
// A traced server stamps its reads: a frame arrives with its first byte,
// the read that delivered it, which is the one before this frame's own
// when the previous frame's read brought the start of this one along.
// A frame's trace is finished once its reply is written, so the trace's
// hooks run off the caller's wait.
func (s *Server) serveConn(c net.Conn) error {
	var buf, out []byte
	var in io.Reader = c
	var stamps *stampedReader
	if s.opts.OnTrace != nil {
		stamps = &stampedReader{r: c}
		in = stamps
	}
	for {
		if stamps != nil {
			stamps.first = time.Time{}
			if len(buf) > 0 {
				stamps.first = stamps.last
			}
		}
		f, n, grown, err := readFrame(in, buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if !s.beginFrame() {
			return nil // draining: the peer's call fails over or retries
		}
		var (
			t           *reqtrace.Trace
			status      int
			first, last time.Time
		)
		if stamps != nil {
			first, last = stamps.first, stamps.last
		}
		out, t, status = s.dispatch(out[:0], &f, first, last, n)
		_, err = c.Write(out)
		if t != nil {
			t.FinishRoot(status)
		}
		s.frames.Done()
		if err != nil {
			return err
		}
		buf = append(grown[:0], grown[n:]...)
	}
}

// beginFrame counts a frame into the set Shutdown drains, unless the
// drain has begun: taking the count under the lock that sets closing
// orders every Add before Shutdown's Wait.
func (s *Server) beginFrame() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return false
	}
	s.frames.Add(1)
	return true
}

// unknownOp heads the error a server answers an op it has no handler
// for: a peer that predates the op, to its caller.
const unknownOp = "ring: unknown op "

// dispatch runs one frame of size bytes, which arrived from first to
// last, through its handler and appends the response frame to out. When
// the server traces, it opens the frame's request trace and returns it
// with the status its root is to finish with.
func (s *Server) dispatch(out []byte, f *Frame, first, last time.Time, size int) ([]byte, *reqtrace.Trace, int) {
	h := s.handlers[f.Op]
	name := s.opNames[f.Op]
	if name == "" {
		name = fmt.Sprintf("op%d", f.Op)
	}
	if h == nil {
		return AppendFrame(out, &Frame{Op: f.Op, Status: StatusError,
			RequestID: f.RequestID, Body: []byte(unknownOp + name)}), nil, 0
	}
	ctx := context.Background()
	var t *reqtrace.Trace
	if s.opts.OnTrace != nil {
		t = reqtrace.New(reqtrace.StartOptions{
			Traceparent: f.Traceparent,
			RequestID:   f.RequestID,
			Method:      "RPC",
			Route:       name,
			Start:       first,
			OnDone:      s.opts.OnTrace,
		})
		t.AddCompleted(t.Root(), "frame.read", first, last.Sub(first), reqtrace.Int("bytes", int64(size)))
		ctx = reqtrace.NewContext(ctx, t)
	}
	body, err := h(ctx, f)
	resp := Frame{Op: f.Op, RequestID: f.RequestID, Body: body}
	status := 200
	switch {
	case errors.Is(err, ErrNotFound):
		resp.Status, status = StatusNotFound, 404
	case err != nil:
		resp.Status, status = StatusError, 500
		resp.Body = []byte(err.Error())
		if t != nil {
			t.SetError(err.Error())
		}
	}
	return AppendFrame(out, &resp), t, status
}

// Shutdown stops accepting, waits for in-flight frames to finish (or
// ctx to expire, which it reports), then closes every connection. Peers
// hold pooled persistent connections that never close on their own, so
// the drain unit is the frame, not the connection.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	done := make(chan struct{})
	go func() {
		s.frames.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	if err == nil {
		// Every connection goroutine is between frames and exits on the
		// close. After a forced close one may sit in a handler that
		// outlived ctx; the deadline is the caller's, so it is not waited on.
		s.drained.Wait()
	}
	return err
}

// Kill closes the listener and every open connection immediately — the
// in-process stand-in for SIGKILL in failure tests: in-flight frames
// die mid-write, exactly what peers must tolerate.
func (s *Server) Kill() {
	s.mu.Lock()
	s.closing = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// Client is a frame-RPC client for one peer address: a lazy pool of
// connections, one checked out per in-flight call, so concurrent
// scatter-gather calls to the same peer never serialize on a socket.
type Client struct {
	addr    string
	timeout time.Duration

	mu     sync.Mutex
	idle   []*clientConn
	closed bool
}

type clientConn struct {
	c   net.Conn
	buf []byte
	vec [][]byte    // the slices of one request, kept for its storage
	out net.Buffers // vec as WriteTo consumes it
}

// NewClient returns a client for addr. timeout bounds dial and —
// absent a context deadline — each call's round trip (<= 0: 10s).
// Connections are opened on first use.
func NewClient(addr string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &Client{addr: addr, timeout: timeout}
}

// Addr returns the peer address.
func (c *Client) Addr() string { return c.addr }

func (c *Client) get(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("ring: client closed")
	}
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	d := net.Dialer{Timeout: c.timeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("ring: dialing %s: %w", c.addr, err)
	}
	return &clientConn{c: conn}, nil
}

func (c *Client) put(cc *clientConn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < 4 {
		c.idle = append(c.idle, cc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cc.c.Close()
}

// Close releases all pooled connections; in-flight calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cc := range idle {
		cc.c.Close()
	}
	return nil
}

// Call performs one round trip: request out, response in. The hop is
// recorded as an "rpc.<opName>" span when ctx carries a request trace,
// and the frame propagates the trace context (the span becomes the
// remote root's parent) plus the request ID — so a flight-recorder
// dump on either node shows the same trace ID with the cross-node
// parent/child edge intact. A peer's StatusNotFound surfaces as
// ErrNotFound, StatusError as an error carrying the peer's message.
func (c *Client) Call(ctx context.Context, op byte, opName, reqID string, body []byte) ([]byte, error) {
	return c.call(ctx, op, opName, reqID, body, nil)
}

// call is Call with a request body that continues past body with the
// slices of tail, sent as they are: a bulk sender hands over the blobs
// it was given instead of assembling a copy of them. The slices are the
// caller's again when call returns.
func (c *Client) call(ctx context.Context, op byte, opName, reqID string, body []byte, tail [][]byte) ([]byte, error) {
	sp := reqtrace.StartLeaf(ctx, "rpc."+opName, reqtrace.Str("peer", c.addr))
	defer sp.End()
	tp := ""
	if t, _, ok := reqtrace.FromContext(ctx); ok {
		tp = reqtrace.FormatTraceparent(t.ID(), sp.ID())
	}
	resp, err := c.roundTrip(ctx, &Frame{Op: op, RequestID: reqID, Traceparent: tp, Body: body}, tail)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	switch resp.Status {
	case StatusOK:
		return resp.Body, nil
	case StatusNotFound:
		sp.SetAttr(reqtrace.Str("status", "notfound"))
		return nil, ErrNotFound
	default:
		err := &RemoteError{Op: opName, Peer: c.addr, Msg: string(resp.Body)}
		sp.SetError(err)
		return nil, err
	}
}

// roundTrip writes one frame and reads one response on a pooled
// connection. Transport errors close the connection; protocol-level
// errors (StatusError) keep it pooled. A ctx that ends mid-call ends the
// call: the connection's deadline is forced into the past, the blocked
// read or write fails at once, and the connection — whose peer may still
// answer the abandoned request — never returns to the pool.
func (c *Client) roundTrip(ctx context.Context, req *Frame, tail [][]byte) (Frame, error) {
	if err := ctx.Err(); err != nil {
		// Already over: not worth a pooled connection and the redial.
		return Frame{}, fmt.Errorf("ring: call to %s: %w", c.addr, err)
	}
	cc, err := c.get(ctx)
	if err != nil {
		return Frame{}, err
	}
	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := cc.c.SetDeadline(deadline); err != nil {
		cc.c.Close()
		return Frame{}, err
	}
	stop := context.AfterFunc(ctx, func() { cc.c.SetDeadline(time.Unix(1, 0)) })
	resp, err := cc.exchange(req, tail)
	if !stop() {
		cc.c.Close()
		return Frame{}, fmt.Errorf("ring: call to %s: %w", c.addr, ctx.Err())
	}
	if err != nil {
		cc.c.Close()
		return Frame{}, fmt.Errorf("ring: peer %s: %w", c.addr, err)
	}
	c.put(cc)
	return resp, nil
}

// exchange sends req — the frame encoded into the connection's buffer,
// then tail — in one vectored write, and reads the response through the
// same buffer, which keeps its grown storage for the next call.
func (cc *clientConn) exchange(req *Frame, tail [][]byte) (Frame, error) {
	n := 0
	for _, b := range tail {
		n += len(b)
	}
	head := appendFrame(cc.buf[:0], req, n)
	cc.buf = head[:0]
	cc.vec = append(append(cc.vec[:0], head), tail...)
	cc.out = cc.vec
	_, err := cc.out.WriteTo(cc.c)
	clear(cc.vec) // the tail is the caller's
	if err != nil {
		return Frame{}, fmt.Errorf("writing: %w", err)
	}
	f, _, buf, err := readFrame(cc.c, cc.buf)
	cc.buf = buf[:0]
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return Frame{}, fmt.Errorf("reading: %w", err)
	}
	// Copy the body out of the pooled buffer before the connection is
	// reused.
	f.Body = append([]byte(nil), f.Body...)
	return f, nil
}
