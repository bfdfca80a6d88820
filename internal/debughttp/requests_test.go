package debughttp

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
)

// completedTrace builds and finalizes one trace with a small span tree.
func completedTrace(rec *reqtrace.Recorder, route string, status int, spanDur time.Duration) *reqtrace.Trace {
	start := time.Now().Add(-spanDur - time.Millisecond)
	tr := reqtrace.New(reqtrace.StartOptions{Method: "POST", Route: route, Start: start, OnDone: rec.Complete})
	tr.AddCompleted(tr.Root(), "queue.wait", start, spanDur/2)
	tr.AddCompleted(tr.Root(), "store.commit", start.Add(spanDur/2), spanDur/2)
	tr.FinishRoot(status)
	return tr
}

func TestDebugRequestsHandler(t *testing.T) {
	rec := reqtrace.NewRecorder(reqtrace.RecorderConfig{Capacity: 8})
	tr := completedTrace(rec, "/v1/traces", 202, time.Millisecond)
	srv := httptest.NewServer(RequestsHandler(rec))
	defer srv.Close()

	get := func(path string) (int, string) {
		r, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return r.StatusCode, b.String()
	}

	code, body := get("/debug/requests")
	if code != 200 {
		t.Fatalf("list: status %d", code)
	}
	var doc RequestsDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("list is not JSON: %v", err)
	}
	if doc.Count != 1 || len(doc.Requests) != 1 {
		t.Fatalf("list count = %d/%d", doc.Count, len(doc.Requests))
	}
	row := doc.Requests[0]
	if row.Trace != tr.ID().String() || row.Status != 202 || row.Method != "POST" {
		t.Fatalf("row = %+v", row)
	}
	if row.Phases["queue.wait"] <= 0 || row.Phases["store.commit"] <= 0 {
		t.Fatalf("phase breakdown missing: %v", row.Phases)
	}

	code, body = get("/debug/requests?format=text")
	if code != 200 || !strings.Contains(body, "queue.wait=") {
		t.Fatalf("text table: status %d body %q", code, body)
	}

	code, body = get("/debug/requests/" + tr.ID().String())
	if code != 200 {
		t.Fatalf("detail: status %d", code)
	}
	var det reqtrace.Detail
	if err := json.Unmarshal([]byte(body), &det); err != nil {
		t.Fatalf("detail is not JSON: %v", err)
	}
	if len(det.SpanTree) != 3 {
		t.Fatalf("span tree has %d spans, want 3", len(det.SpanTree))
	}
	if _, _, ok := reqtrace.ParseTraceparent(det.Traceparent); !ok {
		t.Fatalf("detail traceparent invalid: %s", det.Traceparent)
	}

	if code, _ = get("/debug/requests/" + strings.Repeat("0", 32)); code != 404 {
		t.Fatalf("unknown id: status %d, want 404", code)
	}
	if code, _ = get("/debug/requests?limit=bogus"); code != 400 {
		t.Fatalf("bad limit: status %d, want 400", code)
	}
}
