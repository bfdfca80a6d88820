package ring

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
)

// startTestServer serves s on a loopback listener and returns its
// address. The server is shut down when the test ends.
func startTestServer(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return l.Addr().String()
}

func TestClientServerRoundTrip(t *testing.T) {
	s := NewServer(ServerOptions{})
	s.Handle(OpQuery, "query", func(_ context.Context, f *Frame) ([]byte, error) {
		return append([]byte("echo:"), f.Body...), nil
	})
	addr := startTestServer(t, s)
	c := NewClient(addr, time.Second)
	defer c.Close()

	resp, err := c.Call(context.Background(), OpQuery, "query", "rid-1", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:hello" {
		t.Fatalf("resp = %q", resp)
	}
	// Ping comes pre-registered.
	if resp, err = c.Call(context.Background(), OpPing, "ping", "", nil); err != nil || string(resp) != `{"ok":true}` {
		t.Fatalf("ping: %q, %v", resp, err)
	}
}

func TestClientErrorMapping(t *testing.T) {
	s := NewServer(ServerOptions{})
	s.Handle(OpResult, "result", func(context.Context, *Frame) ([]byte, error) {
		return nil, ErrNotFound
	})
	s.Handle(OpStats, "stats", func(context.Context, *Frame) ([]byte, error) {
		return nil, errors.New("disk on fire")
	})
	addr := startTestServer(t, s)
	c := NewClient(addr, time.Second)
	defer c.Close()

	if _, err := c.Call(context.Background(), OpResult, "result", "", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("miss maps to %v, want ErrNotFound", err)
	}
	_, err := c.Call(context.Background(), OpStats, "stats", "", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("handler failure maps to %T %v, want RemoteError", err, err)
	}
	if re.Msg != "disk on fire" || re.Op != "stats" {
		t.Errorf("RemoteError = %+v", re)
	}
	// Unknown op is also an application error, not a dropped connection.
	if _, err := c.Call(context.Background(), 99, "mystery", "", nil); !errors.As(err, &re) {
		t.Errorf("unknown op maps to %v, want RemoteError", err)
	}
}

// TestTracePropagation drives one call with a client-side request trace
// and a recording server: the server-side root must adopt the client's
// trace ID and request ID, so a flight-recorder dump on either node
// shows the same trace.
func TestTracePropagation(t *testing.T) {
	rec := reqtrace.NewRecorder(reqtrace.RecorderConfig{Capacity: 8})
	recorded := make(chan struct{}, 1) // the server finishes its trace after writing the reply
	s := NewServer(ServerOptions{OnTrace: func(tr *reqtrace.Trace) { rec.Complete(tr); recorded <- struct{}{} }})
	var gotRID, gotTP string
	s.Handle(OpQuery, "query", func(ctx context.Context, f *Frame) ([]byte, error) {
		gotRID, gotTP = f.RequestID, f.Traceparent
		return nil, nil
	})
	addr := startTestServer(t, s)
	c := NewClient(addr, time.Second)
	defer c.Close()

	ct := reqtrace.New(reqtrace.StartOptions{Method: "GET", Route: "/v1/query", RequestID: "req-42"})
	ctx := reqtrace.NewContext(context.Background(), ct)
	if _, err := c.Call(ctx, OpQuery, "query", "req-42", nil); err != nil {
		t.Fatal(err)
	}
	ct.FinishRoot(200)

	if gotRID != "req-42" {
		t.Errorf("peer saw request ID %q", gotRID)
	}
	tid, _, ok := reqtrace.ParseTraceparent(gotTP)
	if !ok || tid != ct.ID() {
		t.Errorf("peer saw traceparent %q, want trace %s", gotTP, ct.ID())
	}
	select {
	case <-recorded:
	case <-time.After(5 * time.Second):
	}
	recent := rec.Recent(1)
	if len(recent) != 1 {
		t.Fatal("server recorded no trace")
	}
	if recent[0].Trace != ct.ID().String() || recent[0].RequestID != "req-42" || recent[0].Route != "query" {
		t.Errorf("server-side trace = %+v, want adopted trace %s", recent[0], ct.ID())
	}
}

func TestConcurrentCalls(t *testing.T) {
	s := NewServer(ServerOptions{})
	s.Handle(OpQuery, "query", func(_ context.Context, f *Frame) ([]byte, error) {
		time.Sleep(time.Millisecond)
		return f.Body, nil
	})
	addr := startTestServer(t, s)
	c := NewClient(addr, 5*time.Second)
	defer c.Close()

	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func(i int) {
			want := fmt.Sprintf("payload-%d", i)
			resp, err := c.Call(context.Background(), OpQuery, "query", "", []byte(want))
			if err == nil && string(resp) != want {
				err = fmt.Errorf("cross-wired response %q for %q", resp, want)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < 32; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestKillFailsInFlight(t *testing.T) {
	s := NewServer(ServerOptions{})
	block := make(chan struct{})
	s.Handle(OpQuery, "query", func(context.Context, *Frame) ([]byte, error) {
		<-block
		return nil, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	c := NewClient(l.Addr().String(), 5*time.Second)
	defer c.Close()
	defer close(block)

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), OpQuery, "query", "", nil)
		done <- err
	}()
	// Let the call reach the handler, then crash the server under it.
	time.Sleep(50 * time.Millisecond)
	s.Kill()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call survived Kill")
		}
		var re *RemoteError
		if errors.As(err, &re) {
			t.Fatalf("Kill produced a RemoteError (%v), want a transport error", err)
		}
		if !strings.Contains(err.Error(), l.Addr().String()) {
			t.Errorf("transport error does not name the peer: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call hung after Kill")
	}
}

// TestServerGracefulDrain: Shutdown waits for the frame being served —
// its caller gets the answer — then closes the connection under the
// idle client and refuses new ones.
func TestServerGracefulDrain(t *testing.T) {
	s := NewServer(ServerOptions{})
	entered, release := make(chan struct{}), make(chan struct{})
	s.Handle(OpQuery, "query", func(context.Context, *Frame) ([]byte, error) {
		close(entered)
		<-release
		return []byte("done"), nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	c := NewClient(l.Addr().String(), 5*time.Second)
	defer c.Close()

	type answer struct {
		body []byte
		err  error
	}
	called := make(chan answer, 1)
	go func() {
		body, err := c.Call(context.Background(), OpQuery, "query", "", nil)
		called <- answer{body, err}
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(ctx) }()
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned (%v) with a frame in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if a := <-called; a.err != nil || string(a.body) != "done" {
		t.Fatalf("in-flight call: %q, %v", a.body, a.err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve after drain: %v", err)
	}
	if _, err := c.Call(context.Background(), OpPing, "ping", "", nil); err == nil {
		t.Fatal("call succeeded after shutdown")
	}
}

// TestServerShutdownForcesAfterTimeout: a frame that outlives the drain
// deadline does not hold Shutdown; its connection is closed under it.
func TestServerShutdownForcesAfterTimeout(t *testing.T) {
	s := NewServer(ServerOptions{})
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	s.Handle(OpQuery, "query", func(context.Context, *Frame) ([]byte, error) {
		close(entered)
		<-release
		return nil, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	c := NewClient(l.Addr().String(), 5*time.Second)
	defer c.Close()
	called := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), OpQuery, "query", "", nil)
		called <- err
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the drain deadline", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if err := <-called; err == nil {
		t.Fatal("the stuck call survived a forced shutdown")
	}
}

// TestCallReturnsOnCancel: a call whose context is cancelled returns
// ctx.Err() then, not when the peer gets round to answering, and the
// connection the abandoned answer will arrive on is not reused.
func TestCallReturnsOnCancel(t *testing.T) {
	s := NewServer(ServerOptions{})
	done := make(chan struct{})
	defer close(done) // lets the handler go before the server drains
	s.Handle(OpQuery, "query", func(context.Context, *Frame) ([]byte, error) {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
		}
		return []byte("late"), nil
	})
	addr := startTestServer(t, s)
	c := NewClient(addr, 10*time.Second)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := c.Call(ctx, OpQuery, "query", "", nil)
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("cancelled call returned after %v", took)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v, want context.Canceled", err)
	}
	// The next call gets its own answer, not the late one.
	if resp, err := c.Call(context.Background(), OpPing, "ping", "", nil); err != nil || string(resp) != `{"ok":true}` {
		t.Fatalf("call after a cancelled one: %q, %v", resp, err)
	}
	// A call that starts cancelled costs no connection: the pooled one
	// is still there for the call after it.
	_, before := s.Conns()
	if _, err := c.Call(ctx, OpPing, "ping", "", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("call on a cancelled context returned %v", err)
	}
	if _, err := c.Call(context.Background(), OpPing, "ping", "", nil); err != nil {
		t.Fatal(err)
	}
	if _, after := s.Conns(); after != before {
		t.Fatalf("server accepted %d connections, want the %d it had", after, before)
	}
}
