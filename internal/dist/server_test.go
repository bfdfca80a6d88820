package dist

import (
	"context"
	"io"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// TestServerGracefulDrain: a worker reports its master connections and
// RPCs, and Shutdown — whose drain unit is the in-flight frame (see
// ring's TestServerShutdown*) — does not wait for a master that merely
// stays connected.
func TestServerGracefulDrain(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv := NewServer(slog.New(slog.NewTextHandler(io.Discard, nil)), reg)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, reason, err := c.Categorize(testJob(1), core.DefaultConfig()); err != nil || reason != "" {
		t.Fatalf("categorize before drain: %v %q", err, reason)
	}

	// Scraped twice: the accepted total is synced by delta, not re-added.
	var b strings.Builder
	for i := 0; i < 2; i++ {
		b.Reset()
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{
		"mosaic_dist_worker_connections 1",
		"mosaic_dist_worker_connections_total 1",
		"mosaic_dist_worker_rpc_total 1",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("missing %q in worker metrics:\n%s", want, b.String())
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain with an idle master connected: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve after drain: %v", err)
	}
	if _, _, err := c.Categorize(testJob(2), core.DefaultConfig()); err == nil {
		t.Fatal("categorize succeeded after shutdown")
	}
	if _, err := Dial(l.Addr().String()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

func TestMasterInstrumentFailoverMetrics(t *testing.T) {
	good := startWorker(t)
	// A dead worker: dial succeeds during setup, then the connection is
	// closed so every RPC to it fails immediately.
	dl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(dl) //nolint:errcheck
	badClient, err := Dial(dl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	goodClient, err := Dial(good)
	if err != nil {
		t.Fatal(err)
	}
	defer goodClient.Close()
	dl.Close()
	badClient.Close()

	reg := telemetry.NewRegistry()
	m := NewMaster([]*Client{badClient, goodClient}).
		Instrument(reg, slog.New(slog.NewTextHandler(io.Discard, nil)))

	// Job 1's home worker is the bad one: the dispatch must fail over.
	res, err := m.Categorize(context.Background(), testJob(1), core.DefaultConfig())
	if err != nil || res == nil {
		t.Fatalf("categorize with failover: %v", err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	prom := b.String()
	for _, want := range []string{
		"mosaic_dist_rpc_retries_total 1",
		"mosaic_dist_rpc_errors_total 1",
		"mosaic_dist_workers_dead_total 1",
		"mosaic_dist_workers_live 1",
		"mosaic_dist_rpc_seconds_count 2", // failed attempt + successful retry
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("missing %q in master metrics:\n%s", want, prom)
		}
	}
	if m.LiveWorkers() != 1 {
		t.Fatalf("live workers = %d, want 1", m.LiveWorkers())
	}
}
