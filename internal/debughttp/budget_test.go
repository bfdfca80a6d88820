package debughttp

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// TestBudgetDocument feeds finished traces of two routes into a budget
// and reads /debug/budget: one row per span name and an unattributed row
// last, shares adding up to 1, the time after the root in rows of its own.
func TestBudgetDocument(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewBudget(reg)
	ms := time.Millisecond
	for i := 0; i < 3; i++ {
		start := time.Now().Add(-4 * ms)
		tr := reqtrace.New(reqtrace.StartOptions{Method: "POST", Route: "/v1/traces:batch", Start: start, OnDone: b.Observe})
		tr.AddCompleted(tr.Root(), "ingest.read", start, ms)
		tr.AddCompleted(tr.Root(), "ingest.decode", start.Add(ms), ms)
		item := tr.AddCompleted(tr.Root(), "item:frame-0", start.Add(2*ms), ms)
		tr.AddCompleted(item, "queue.wait", start.Add(2*ms+ms/2), 10*ms)
		tr.FinishRoot(202)
	}
	rpc := reqtrace.New(reqtrace.StartOptions{Method: "RPC", Route: "ingest", Start: time.Now().Add(-ms), OnDone: b.Observe})
	rpc.FinishRoot(200)

	srv := httptest.NewServer(BudgetHandler(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/budget")
	if err != nil {
		t.Fatal(err)
	}
	var doc BudgetDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Routes) != 2 || doc.Routes[0].Route != "POST /v1/traces:batch" || doc.Routes[1].Route != "RPC ingest" {
		t.Fatalf("routes %+v", doc.Routes)
	}
	batch := doc.Routes[0]
	if batch.Requests != 3 || batch.RootMS < 4 {
		t.Fatalf("batch route: %d requests, root %.3f ms on average", batch.Requests, batch.RootMS)
	}
	names, share := []string{}, 0.0
	for _, r := range batch.Rows {
		names = append(names, r.Span)
		share += r.Share
		if r.Count != 3 {
			t.Errorf("row %s counted %d traces, want 3", r.Span, r.Count)
		}
	}
	if len(names) != 5 || names[4] != reqtrace.Unattributed || math.Abs(share-1) > 1e-9 {
		t.Fatalf("rows %v share %v, want four spans and unattributed last, adding up to 1", names, share)
	}
	if len(batch.After) != 1 || batch.After[0].Span != "after:queue.wait" || batch.After[0].Share != 1 || batch.After[0].P50MS < 5 {
		t.Fatalf("after rows %+v, want queue.wait's wait past the answer", batch.After)
	}
	if rows := doc.Routes[1].Rows; len(rows) != 1 || rows[0].Span != reqtrace.Unattributed || rows[0].Share != 1 {
		t.Fatalf("a bare RPC root: %+v", rows)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/budget?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"POST /v1/traces:batch: 3 requests", "item:", "after the answer:", "unattributed"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("text budget lacks %q:\n%s", want, text)
		}
	}
}
