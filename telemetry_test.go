package mosaic_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic"
)

// telemetryJobs builds a small deterministic corpus for facade-level
// telemetry tests.
func telemetryJobs(n int) []*mosaic.Job {
	rng := rand.New(rand.NewSource(3))
	jobs := make([]*mosaic.Job, 0, n)
	for i := 0; i < n; i++ {
		b := mosaic.NewTraceBuilder(rng, fmt.Sprintf("u%d", i%2), fmt.Sprintf("/bin/app%d", i%3), uint64(i+1), 8, 3600)
		b.Burst(mosaic.BurstSpec{At: 30, Duration: 60, Bytes: 1 << 30, Records: 4})
		jobs = append(jobs, b.Job())
	}
	return jobs
}

func TestOptionsTelemetryInstrumentsRun(t *testing.T) {
	tel := mosaic.NewTelemetry(mosaic.TelemetryConfig{Spans: true, SlowK: 3})
	stats := mosaic.NewStageStats() // a second observer, composed by the facade
	jobs := telemetryJobs(12)
	analysis, err := mosaic.AnalyzeJobsContext(context.Background(), jobs, mosaic.Options{
		Workers:   2,
		Observer:  stats,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(analysis.Apps) == 0 {
		t.Fatal("no apps analyzed")
	}

	// Both observers saw the run.
	if got := stats.Stage(mosaic.StageDecode).Out; got != int64(len(jobs)) {
		t.Fatalf("user observer decode out = %d, want %d", got, len(jobs))
	}
	if got := tel.Stats().Stage(mosaic.StageDecode).Out; got != int64(len(jobs)) {
		t.Fatalf("telemetry decode out = %d, want %d", got, len(jobs))
	}
	// Spans were recorded, including per-trace decode spans.
	tracePath := filepath.Join(t.TempDir(), "run.trace.json")
	if err := tel.WriteTrace(tracePath); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(doc), `"cat": "decode"`); n != len(jobs) {
		t.Fatalf("%d decode spans recorded through the facade knob, want %d", n, len(jobs))
	}

	// The debug server serves the bundle's state over HTTP.
	srv, err := mosaic.StartDebugServer("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/engine")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var state struct {
		Stages []mosaic.StageSnapshot `json:"stages"`
	}
	if err := json.Unmarshal(body, &state); err != nil {
		t.Fatalf("/debug/engine invalid JSON: %v", err)
	}
	if len(state.Stages) == 0 {
		t.Fatal("/debug/engine reports no stages after a run")
	}

	resp, err = http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "mosaic_engine_items_out_total") {
		t.Fatalf("/metrics lacks engine families:\n%s", metrics)
	}
}

func TestDebugEngineRoute(t *testing.T) {
	tel := mosaic.NewTelemetry(mosaic.TelemetryConfig{SlowK: 3})
	// Simulate a little pipeline traffic.
	tel.StageStarted(mosaic.StageDecode)
	for i := 0; i < 5; i++ {
		tel.ItemIn(mosaic.StageDecode)
		tel.ItemOut(mosaic.StageDecode)
	}
	tel.ItemSpan(mosaic.StageDecode, "a.mosd", time.Now(), time.Millisecond)
	tel.StageFinished(mosaic.StageDecode)

	srv, err := mosaic.StartDebugServer("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (string, http.Header) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
		return string(body), resp.Header
	}

	// /metrics: the engine families, on the shared mux.
	body, _ := get("/metrics")
	for _, want := range []string{
		"# TYPE mosaic_engine_items_in_total counter",
		`mosaic_engine_items_out_total{stage="decode"} 5`,
		"# TYPE mosaic_engine_item_seconds histogram",
		"# TYPE mosaic_engine_stage_seconds gauge",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /debug/engine: live stage snapshot + slow log, JSON.
	body, hdr := get("/debug/engine")
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("/debug/engine content-type = %q", ct)
	}
	var state struct {
		Stages []mosaic.StageSnapshot `json:"stages"`
		Slow   map[string][]struct {
			Name string `json:"name"`
		} `json:"slow"`
	}
	if err := json.Unmarshal([]byte(body), &state); err != nil {
		t.Fatalf("/debug/engine is not valid JSON: %v\n%s", err, body)
	}
	if len(state.Stages) != 1 || state.Stages[0].Stage != mosaic.StageDecode {
		t.Fatalf("/debug/engine stages = %+v, want one decode snapshot", state.Stages)
	}
	if state.Stages[0].Out != 5 {
		t.Fatalf("/debug/engine decode out = %d, want 5", state.Stages[0].Out)
	}
	if !strings.Contains(body, "items_per_sec") {
		t.Fatalf("/debug/engine snapshot lacks items_per_sec:\n%s", body)
	}
	if got := state.Slow["decode"]; len(got) != 1 || got[0].Name != "a.mosd" {
		t.Fatalf("/debug/engine slow = %+v, want the one decode entry", state.Slow)
	}
}
