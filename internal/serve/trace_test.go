package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// waitFor polls cond (bounded) until it holds. Tests wait on the one
// thing they go on to read — a trace's own dump file, a trace's own
// entry in the recorder — never on a counter that other requests (the
// result polls of waitResult, say) advance too.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTraceparentEchoAndPropagation(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// No incoming header: a fresh valid traceparent is minted.
	resp, _ := getBody(t, ts.URL+"/healthz")
	tp := resp.Header.Get("Traceparent")
	if _, _, ok := reqtrace.ParseTraceparent(tp); !ok {
		t.Fatalf("minted traceparent invalid: %q", tp)
	}

	// Incoming W3C header: the trace ID is adopted, the span ID is ours.
	in := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", in)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	out := r2.Header.Get("Traceparent")
	tid, sid, ok := reqtrace.ParseTraceparent(out)
	if !ok {
		t.Fatalf("echoed traceparent invalid: %q", out)
	}
	if tid.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace id not adopted: %s", out)
	}
	if sid.String() == "b7ad6b7169203331" {
		t.Fatal("span id should be the server's root, not the caller's")
	}
}

func TestSlowIngestProducesFlightDump(t *testing.T) {
	dir := t.TempDir()
	flightDir := filepath.Join(dir, "flight")
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// The forced-slow hook: a 1ns threshold makes every request "slow",
	// so the ingest's span tree is dumped the moment it finalizes.
	rec := reqtrace.NewRecorder(reqtrace.RecorderConfig{
		Capacity: 16, Dir: flightDir, SlowThreshold: time.Nanosecond,
	})
	s, _ := newTestServer(t, Config{
		Store: st, Workers: 1, NoBackfill: true, Flight: rec,
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blob := encodeJob(t, testJob(41))
	resp, body := postBlob(t, ts.URL, blob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: status %d body %s", resp.StatusCode, body)
	}
	reqTP := resp.Header.Get("Traceparent")
	tid, _, ok := reqtrace.ParseTraceparent(reqTP)
	if !ok {
		t.Fatalf("ingest traceparent invalid: %q", reqTP)
	}
	id, _, err := store.TraceKey(testJob(41))
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, ts.URL, id)

	// The ingest trace finalizes after its async work — later than the
	// result becomes readable — and its dump is renamed into place later
	// still; its dump must contain the full path edge → queue wait →
	// funnel → categorize → commit → index.
	path := filepath.Join(flightDir, "req-"+tid.String()+".trace.json")
	waitFor(t, "the ingest's flight dump "+path, func() bool {
		_, err := os.Stat(path)
		return err == nil
	})
	data, err := os.ReadFile(path)
	if err != nil {
		ents, _ := os.ReadDir(flightDir)
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("expected dump at %s (dir has %v): %v", path, names, err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("dump is not Chrome trace JSON: %v", err)
	}
	// The finalized trace names each layer the ingest crossed exactly
	// once: the multiset of span names, not a set of minimums. The store
	// commits twice — the trace blob at the edge, the outcome on the
	// worker.
	spanByID := map[string]int{}
	names := map[string]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		names[ev.Name]++
		spanByID[ev.Args["span_id"]] = i
	}
	want := map[string]int{
		"POST /v1/traces": 1, "ingest.read": 1, "ingest.decode": 1, "store.commit": 2,
		"queue.wait": 1, "worker.categorize": 1, "funnel.validate": 1,
		"categorize.exec": 1, "index.update": 1,
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("span names = %v, want %v", names, want)
	}
	// Parent/child consistency: every X event's parent resolves to
	// another span in the tree (the root's parent is zero), and no child
	// starts before the request arrived (ts offsets are non-negative).
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		parent := ev.Args["parent"]
		if parent != strings.Repeat("0", 16) {
			if _, ok := spanByID[parent]; !ok {
				t.Errorf("span %q parent %s not in tree", ev.Name, parent)
			}
		}
		if ev.Ts < 0 {
			t.Errorf("span %q starts before the request (ts=%f)", ev.Name, ev.Ts)
		}
	}
	// The group commit recorded its durability mode and cohort size.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "store.commit" && ev.Args["kind"] == "traces" {
			if ev.Args["durability"] != "fsync" {
				t.Errorf("sync store commit durability = %q", ev.Args["durability"])
			}
			if ev.Args["group_syncs"] == "" {
				t.Error("store.commit missing group_syncs attr")
			}
		}
	}

	// The worker span says how much work the trace was.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "worker.categorize" {
			raw, err1 := strconv.Atoi(ev.Args["raw_ops"])
			merged, err2 := strconv.Atoi(ev.Args["merged_ops"])
			if err1 != nil || err2 != nil || raw < 1 || merged < 1 || merged > raw {
				t.Errorf("worker.categorize raw_ops=%q merged_ops=%q", ev.Args["raw_ops"], ev.Args["merged_ops"])
			}
		}
	}

	// The same trace is queryable through the debug endpoint.
	r, body2 := getBody(t, ts.URL+"/debug/requests/"+tid.String())
	if r.StatusCode != 200 {
		t.Fatalf("/debug/requests/{id}: status %d body %s", r.StatusCode, body2)
	}
	var det reqtrace.Detail
	if err := json.Unmarshal([]byte(body2), &det); err != nil {
		t.Fatal(err)
	}
	if det.Status != http.StatusAccepted || len(det.SpanTree) < 5 {
		t.Fatalf("detail = status %d, %d spans", det.Status, len(det.SpanTree))
	}
	if det.Phases["queue.wait"] < 0 || det.Phases["worker.categorize"] <= 0 {
		t.Fatalf("phase breakdown missing worker time: %v", det.Phases)
	}

	// One name per layer on /metrics too: a serve node has no engine
	// families, and one histogram measures categorization.
	_, metrics := getBody(t, ts.URL+"/metrics")
	var categorizeHistograms []string
	for _, l := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(l, "mosaic_engine_") {
			t.Errorf("serve node exports an engine series: %s", l)
		}
		if strings.HasPrefix(l, "# TYPE ") && strings.HasSuffix(l, " histogram") && strings.Contains(l, "categorize") {
			categorizeHistograms = append(categorizeHistograms, l)
		}
	}
	if len(categorizeHistograms) != 1 {
		t.Errorf("histogram families containing \"categorize\" = %q, want exactly one", categorizeHistograms)
	}
}

func TestBatchIngestItemSpansAndRequestID(t *testing.T) {
	rec := reqtrace.NewRecorder(reqtrace.RecorderConfig{Capacity: 16})
	s, _ := newTestServer(t, Config{Workers: 2, NoBackfill: true, Flight: rec})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var payload []byte
	payload = AppendBatchFrame(payload, encodeJob(t, testJob(51)))
	payload = AppendBatchFrame(payload, encodeJob(t, testJob(52)))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/traces:batch", bytes.NewReader(payload))
	req.Header.Set("Content-Type", BatchContentType)
	req.Header.Set("X-Request-Id", "batch-req-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: status %d body %s", resp.StatusCode, body)
	}
	tid, _, _ := reqtrace.ParseTraceparent(resp.Header.Get("Traceparent"))

	// Satellite: per-item statuses carry the originating request ID.
	var out struct {
		Results []IngestItem `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("results = %d", len(out.Results))
	}
	for i, it := range out.Results {
		if it.RequestID != "batch-req-7" {
			t.Errorf("item %d request_id = %q, want batch-req-7", i, it.RequestID)
		}
	}

	for _, seed := range []int{51, 52} {
		id, _, err := store.TraceKey(testJob(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitResult(t, ts.URL, id)
	}
	var det reqtrace.Detail
	waitFor(t, "batch trace "+tid.String()+" in the recorder", func() bool {
		var ok bool
		det, ok = rec.Get(tid.String())
		return ok
	})
	items, workers := 0, 0
	for _, sp := range det.SpanTree {
		if strings.HasPrefix(sp.Name, "item:") {
			items++
		}
		if sp.Name == "worker.categorize" {
			workers++
		}
	}
	if items != 2 {
		t.Fatalf("batch trace has %d item spans, want 2", items)
	}
	if workers != 2 {
		t.Fatalf("batch trace has %d worker spans, want 2 (one per item)", workers)
	}
}

func TestDisableTracing(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true, DisableTracing: true})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := getBody(t, ts.URL+"/healthz")
	if tp := resp.Header.Get("Traceparent"); tp != "" {
		t.Fatalf("tracing disabled but traceparent echoed: %q", tp)
	}
	if s.Flight() != nil {
		t.Fatal("tracing disabled but a flight recorder exists")
	}
	r, _ := getBody(t, ts.URL+"/debug/requests")
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/requests with tracing off: status %d, want 404", r.StatusCode)
	}
}

func TestStoreGaugesAndOpenMetrics(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blob := encodeJob(t, testJob(61))
	postBlob(t, ts.URL, blob)
	id, _, err := store.TraceKey(testJob(61))
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, ts.URL, id)
	// The worker indexes a trace after storing its result.
	for deadline := time.Now().Add(5 * time.Second); s.Index().Len() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the categorized trace never reached the index")
		}
	}

	// Satellite: store.Stats and index.Stats surface as mosaic_store_*
	// and mosaic_index_* gauges. One trace sits in the delta over an
	// empty generation.
	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"mosaic_store_traces 1", "mosaic_store_results 1",
		"mosaic_store_segments", "mosaic_store_group_syncs_total",
		"mosaic_index_generation_traces 0", "mosaic_index_delta_ops 1",
		"mosaic_index_posting_bytes 0", "mosaic_index_bitmap_postings 0",
		"mosaic_serve_queue_wait_seconds_count",
		"mosaic_http_request_seconds_bucket",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// OpenMetrics negotiation: exemplars link buckets to trace IDs.
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := readAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("content type = %q", ct)
	}
	text := string(om)
	if !strings.HasSuffix(strings.TrimRight(text, "\n")+"\n", "# EOF\n") {
		t.Fatal("OpenMetrics exposition does not end with # EOF")
	}
	if !strings.Contains(text, `# {trace_id="`) {
		t.Fatal("OpenMetrics exposition has no trace-ID exemplars")
	}
}

func TestSLOBreachCounter(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true, SLO: time.Nanosecond})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	getBody(t, ts.URL+"/healthz")
	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, `mosaic_slo_latency_breaches_total{route="/healthz"} 1`) {
		t.Fatalf("SLO breach not counted:\n%s", grepLines(metrics, "slo"))
	}
	if !strings.Contains(metrics, "mosaic_slo_target_seconds") {
		t.Fatal("SLO target gauge missing")
	}
}

// readAll drains a reader (io.ReadAll without importing io here twice).
func readAll(r interface{ Read([]byte) (int, error) }) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// grepLines returns the lines of s containing substr, for failure output.
func grepLines(s, substr string) string {
	var b strings.Builder
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestBudgetRoutesStayBounded sends requests with many made-up methods:
// each would be a new route of the latency budget if the raw method
// named it, so the budget's series count would grow without end.
func TestBudgetRoutesStayBounded(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	routes := func() map[string]bool {
		out := map[string]bool{}
		for _, f := range s.reg.Export() {
			if f.Name == "mosaic_span_seconds" {
				for _, sr := range f.Series {
					out[sr.Labels["route"]] = true
				}
			}
		}
		return out
	}
	const n = 40
	for i := 0; i < n; i++ {
		req, err := http.NewRequest("X"+strconv.Itoa(i)+"Y", ts.URL+"/v1/nothing/"+strconv.Itoa(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// The budget observes a trace as its root finishes, after the
	// response went out: wait for the last request's unattributed row.
	waitFor(t, "the budget to see every request", func() bool {
		var seen int64
		for _, f := range s.reg.Export() {
			if f.Name != "mosaic_span_seconds" {
				continue
			}
			for _, sr := range f.Series {
				if sr.Labels["name"] == reqtrace.Unattributed {
					seen += sr.Count
				}
			}
		}
		return seen == n
	})
	if got := routes(); len(got) != 1 || !got["OTHER other"] {
		t.Fatalf("budget routes after %d made-up methods: %v, want only \"OTHER other\"", n, got)
	}
}
