package debughttp

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

func TestMuxServesMetricsHealthPprofAndRoutes(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("mux_test_total", "test", nil).Add(5)
	srv := httptest.NewServer(NewMux(reg, Route{
		Pattern: "/debug/extra",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write([]byte("extra\n")) }),
	}))
	defer srv.Close()

	get := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header
	}

	// /metrics: Prometheus exposition of the registry, runtime vitals
	// included.
	code, body, hdr := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	for _, want := range []string{"# TYPE mux_test_total counter", "mux_test_total 5", "mosaic_build_info{"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /healthz: liveness.
	code, body, _ = get("/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// A caller's route is mounted beside the built-in ones.
	code, body, _ = get("/debug/extra")
	if code != http.StatusOK || body != "extra\n" {
		t.Fatalf("/debug/extra = %d %q", code, body)
	}

	// pprof index responds.
	code, _, _ = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
}

func TestStartServerServesAndCloses(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", telemetry.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil && err != context.DeadlineExceeded {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// TestNewMuxExposesRuntimeMetrics pins the contract the CI drill
// asserts: every binary serving /metrics through the shared mux
// reports build info and runtime series.
func TestNewMuxExposesRuntimeMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(NewMux(reg))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	if !strings.Contains(out, "mosaic_build_info") {
		t.Fatalf("/metrics missing mosaic_build_info:\n%.2000s", out)
	}
	if !strings.Contains(out, "mosaic_runtime_") {
		t.Fatalf("/metrics missing mosaic_runtime_*:\n%.2000s", out)
	}
}
