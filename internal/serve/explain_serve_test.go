package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

func TestServeExplainEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := testJob(21)
	blob := encodeJob(t, j)
	if resp, body := postBlob(t, ts.URL, blob); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: status %d, body %s", resp.StatusCode, body)
	}
	id, _, err := store.TraceKey(j)
	if err != nil {
		t.Fatal(err)
	}
	resultBody := waitResult(t, ts.URL, id)

	resp, body := getBody(t, ts.URL+"/v1/explain/"+string(id))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("explain Content-Type = %q", ct)
	}
	var e explain.Explanation
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("explain body not an Explanation: %v\n%s", err, body)
	}
	if e.EvidenceCount() == 0 {
		t.Fatal("served explanation has no evidence")
	}
	if len(e.Labels) == 0 {
		t.Fatal("served explanation has no labels")
	}
	// Labels must agree with the served result.
	var res struct {
		Categories []string `json:"categories"`
	}
	if err := json.Unmarshal([]byte(resultBody), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Categories) != len(e.Labels) {
		t.Fatalf("result categories %v != explanation labels %v", res.Categories, e.Labels)
	}

	// Category filter keeps only matching evidence.
	resp, body = getBody(t, ts.URL+"/v1/explain/"+string(id)+"?category=write")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filtered explain: status %d", resp.StatusCode)
	}
	var f explain.Explanation
	if err := json.Unmarshal([]byte(body), &f); err != nil {
		t.Fatal(err)
	}
	if f.EvidenceCount() == 0 {
		t.Fatal("category filter removed all evidence")
	}
	for _, ev := range f.AllEvidence() {
		if !strings.Contains(ev.Category, "write") {
			t.Fatalf("filter leaked evidence for category %q", ev.Category)
		}
	}
	// A filter matching nothing still answers 200 with empty evidence.
	resp, body = getBody(t, ts.URL+"/v1/explain/"+string(id)+"?category=no-such-category")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-filter explain: status %d", resp.StatusCode)
	}
	var z explain.Explanation
	if err := json.Unmarshal([]byte(body), &z); err != nil {
		t.Fatal(err)
	}
	if z.EvidenceCount() != 0 {
		t.Fatal("nonsense filter retained evidence")
	}
}

func TestServeExplainStatusCodes(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Malformed IDs are rejected before any store lookup.
	for _, bad := range []string{"nope", strings.Repeat("g", 64), strings.Repeat("a", 63)} {
		resp, _ := getBody(t, ts.URL+"/v1/explain/"+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("explain %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	// A well-formed but unknown ID is a 404.
	unknown := strings.Repeat("ab", 32)
	resp, body := getBody(t, ts.URL+"/v1/explain/"+unknown)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown explain: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "unknown trace") {
		t.Fatalf("unknown explain body: %s", body)
	}
	// A result stored without its blob, as `mosaic -store` leaves it,
	// has nothing to derive an explanation from.
	res, err := core.Categorize(testJob(28), s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	bare := strings.Repeat("cd", 32)
	if err := s.st.PutResult(store.TraceID(bare), s.fp, res); err != nil {
		t.Fatal(err)
	}
	resp, body = getBody(t, ts.URL+"/v1/explain/"+bare)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, "without its trace") {
		t.Fatalf("result without its blob: status %d, body %s", resp.StatusCode, body)
	}
}

// explainBody is what GET /v1/explain/{id} answers for e: the server's
// encoder over it.
func explainBody(t *testing.T, e *explain.Explanation) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// wantExplainBody is the body a fresh core.CategorizeExplained of j gives
// under s's configuration, checked against what a server that stored
// explanations served: the record json.Marshal wrote, decoded and
// encoded again.
func wantExplainBody(t *testing.T, s *Server, j *darshan.Job) string {
	t.Helper()
	_, e, err := core.CategorizeExplained(j, s.cfg, s.exOpts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var stored explain.Explanation
	if err := json.Unmarshal(data, &stored); err != nil {
		t.Fatal(err)
	}
	want := explainBody(t, e)
	if got := explainBody(t, &stored); got != want {
		t.Fatalf("%s: the stored record's round trip changes the body:\n%s\nwant\n%s", j.Exe, got, want)
	}
	return want
}

// TestServeExplainDerivedForEveryArchetype: for a trace of every
// generator archetype, GET /v1/explain/{id} answers the body of a fresh
// explained categorization of the trace, and its request trace carries
// the lookup's, the categorization's two and the reply's spans, so
// /debug/budget attributes the route.
func TestServeExplainDerivedForEveryArchetype(t *testing.T) {
	rec := reqtrace.NewRecorder(reqtrace.RecorderConfig{Capacity: 64})
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 64, Flight: rec})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i, arch := range gen.DefaultArchetypes() {
		j := archetypeJob(arch, int64(i+1))
		if resp, body := postBlob(t, ts.URL, encodeJob(t, j)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: ingest status %d: %s", arch.Name, resp.StatusCode, body)
		}
		id, _, err := store.TraceKey(j)
		if err != nil {
			t.Fatal(err)
		}
		waitResult(t, ts.URL, id)
		resp, body := getBody(t, ts.URL+"/v1/explain/"+string(id))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: explain status %d: %s", arch.Name, resp.StatusCode, body)
		}
		if want := wantExplainBody(t, s, j); body != want {
			t.Fatalf("%s: served\n%s\nwant\n%s", arch.Name, body, want)
		}
		tid, _, ok := reqtrace.ParseTraceparent(resp.Header.Get("Traceparent"))
		if !ok {
			t.Fatalf("traceparent %q", resp.Header.Get("Traceparent"))
		}
		var det reqtrace.Detail
		waitFor(t, "trace of the explain request", func() bool {
			det, ok = rec.Get(tid.String())
			return ok
		})
		var names []string
		root := det.SpanTree[len(det.SpanTree)-1] // spans are kept in the order they ended
		for _, sp := range det.SpanTree[:len(det.SpanTree)-1] {
			if sp.Parent != root.ID {
				t.Fatalf("%s: span %s is not a child of the root %s", arch.Name, sp.Name, root.Name)
			}
			names = append(names, sp.Name)
		}
		if want := "explain.read,funnel.validate,categorize.exec,explain.encode"; strings.Join(names, ",") != want {
			t.Fatalf("%s: explain spans %v, want %s", arch.Name, names, want)
		}
	}
}

// TestServeExplainOnTheRing: on a three-node ring (RF 2) the owner and
// the follower of a trace of every generator archetype both explain it —
// each from its own copy of the blob — with the same body, a fresh
// explained categorization's; the third node holds nothing of it.
func TestServeExplainOnTheRing(t *testing.T) {
	tc := startTestCluster(t, 3)
	byID := map[string]*clusterTestNode{}
	for _, nd := range tc.nodes {
		byID[nd.id] = nd
	}
	table := tc.nodes[0].srv.Cluster().Table()
	var blobs [][]byte
	var jobs []*darshan.Job
	for i, arch := range gen.DefaultArchetypes() {
		j := archetypeJob(arch, int64(40+i))
		jobs = append(jobs, j)
		blobs = append(blobs, encodeJob(t, j))
	}
	resp, ir := postBatch(t, tc.nodes[0].http.URL, BatchContentType, batchBody(blobs...))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	ids := acked(t, ir)
	for k, id := range ids {
		want := wantExplainBody(t, tc.nodes[0].srv, jobs[k])
		holders := map[string]bool{}
		for _, nd := range table.Replicas(string(id)) {
			holders[nd.ID] = true
			node := byID[nd.ID]
			var body string
			waitFor(t, "explanation on "+nd.ID, func() bool {
				var resp *http.Response
				resp, body = getBody(t, node.http.URL+"/v1/explain/"+string(id))
				return resp.StatusCode == http.StatusOK
			})
			if body != want {
				t.Fatalf("%s on %s: served\n%s\nwant\n%s", id, nd.ID, body, want)
			}
		}
		if len(holders) != 2 {
			t.Fatalf("%s has %d replicas, want 2", id, len(holders))
		}
		for _, nd := range tc.nodes {
			if holders[nd.id] {
				continue
			}
			if resp, body := getBody(t, nd.http.URL+"/v1/explain/"+string(id)); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("%s on %s, which holds nothing of it: status %d: %s", id, nd.id, resp.StatusCode, body)
			}
		}
	}
}

// TestServeExplainConflict: a stored result whose category set is not
// the recomputation's is never explained — 409, with both label sets.
func TestServeExplainConflict(t *testing.T) {
	s, st := newTestServer(t, Config{Workers: 1, NoBackfill: true})
	defer s.Shutdown(context.Background())
	j := testJob(24)
	other := archetypeJob(gen.DXTCheckpointerArchetype(true), 25)
	id := storeJob(t, s, j)
	fresh, err := core.Categorize(j, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := core.Categorize(other, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wrong.Categories == fresh.Categories {
		t.Fatal("the two traces categorize alike; the test needs different sets")
	}
	if err := st.PutResult(id, s.fp, wrong); err != nil {
		t.Fatal(err)
	}
	code, body := getBodyFrom(t, s.Handler(), "/v1/explain/"+string(id))
	if code != http.StatusConflict {
		t.Fatalf("status %d, want 409: %s", code, body)
	}
	var c struct {
		Stored     []string `json:"stored_labels"`
		Recomputed []string `json:"recomputed_labels"`
	}
	if err := json.Unmarshal([]byte(body), &c); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c.Stored, wrong.Categories.Strings()) || !slices.Equal(c.Recomputed, fresh.Categories.Strings()) {
		t.Fatalf("409 names stored %v and recomputed %v, want %v and %v",
			c.Stored, c.Recomputed, wrong.Categories.Strings(), fresh.Categories.Strings())
	}
}

// gatedExplainExec categorizes as core does, but holds every explained
// categorization until release is closed, announcing each on entered.
type gatedExplainExec struct {
	entered chan struct{}
	release chan struct{}
	calls   atomic.Int32
}

func (g *gatedExplainExec) Categorize(_ context.Context, j *darshan.Job, cfg core.Config) (*core.Result, error) {
	return core.Categorize(j, cfg)
}

func (g *gatedExplainExec) CategorizeExplained(ctx context.Context, j *darshan.Job, cfg core.Config, opts explain.Options) (*core.Result, *explain.Explanation, error) {
	g.calls.Add(1)
	g.entered <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	return core.CategorizeExplained(j, cfg, opts)
}

func (g *gatedExplainExec) Concurrency() int { return 1 }

// TestServeExplainBounded: a server derives at most Workers explanations
// at once. While two GETs hold both of a two-worker server's slots,
// further GETs answer 429 with Retry-After and run no categorization;
// the two held ones are then served, and so is the next GET.
func TestServeExplainBounded(t *testing.T) {
	exec := &gatedExplainExec{entered: make(chan struct{}, 8), release: make(chan struct{})}
	s, st := newTestServer(t, Config{Workers: 2, NoBackfill: true, Executor: exec})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	j := testJob(27)
	id := storeJob(t, s, j)
	res, err := core.Categorize(j, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutResult(id, s.fp, res); err != nil {
		t.Fatal(err)
	}
	want := wantExplainBody(t, s, j)
	path := "/v1/explain/" + string(id)
	type answer struct {
		code int
		body string
	}
	held := make(chan answer, 2)
	for range 2 {
		go func() {
			code, body := getBodyFrom(t, h, path)
			held <- answer{code, body}
		}()
	}
	<-exec.entered
	<-exec.entered
	// A GET that ran a categorization would wait for release; the
	// deadline turns that into a failure instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := range 3 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil).WithContext(ctx))
		if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("GET %d beyond the bound: status %d, Retry-After %q: %s", i, rec.Code, rec.Header().Get("Retry-After"), rec.Body)
		}
	}
	if n := exec.calls.Load(); n != 2 {
		t.Fatalf("%d categorizations ran, want the 2 that hold the slots", n)
	}
	close(exec.release)
	for range 2 {
		if a := <-held; a.code != http.StatusOK || a.body != want {
			t.Fatalf("held GET: status %d, served\n%s\nwant\n%s", a.code, a.body, want)
		}
	}
	if code, body := getBodyFrom(t, h, path); code != http.StatusOK || body != want {
		t.Fatalf("GET after the slots came back: status %d: %s", code, body)
	}
}

// TestServeExplainWithoutStoredRecord: a trace whose result was stored
// without an explanation — by a server with explanations off — is
// explained on read with the body of a fresh one, and an explanation
// record an earlier server stored is not what is served.
func TestServeExplainWithoutStoredRecord(t *testing.T) {
	s, st := newTestServer(t, Config{Workers: 1, NoBackfill: true})
	defer s.Shutdown(context.Background())
	for _, seed := range []int{23, 26} {
		j := testJob(seed)
		id := storeJob(t, s, j)
		res, e, err := core.CategorizeExplained(j, s.cfg, s.exOpts)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutResult(id, s.fp, res); err != nil {
			t.Fatal(err)
		}
		if seed == 26 {
			stale := *e
			stale.App = "stale"
			if _, err := st.PutExplanation(id, s.fp, &stale); err != nil {
				t.Fatal(err)
			}
		}
		code, body := getBodyFrom(t, s.Handler(), "/v1/explain/"+string(id))
		if want := wantExplainBody(t, s, j); code != http.StatusOK || body != want {
			t.Fatalf("seed %d: status %d, served\n%s\nwant\n%s", seed, code, body, want)
		}
	}
}

// TestStatsCountNoExplanations: an explanation record in the store, as
// an older server left one, is neither counted nor exported. /v1/stats
// has no store.explanations, /metrics no mosaic_store_explanations, and
// the record changes no other figure.
func TestStatsCountNoExplanations(t *testing.T) {
	s, st := newTestServer(t, Config{Workers: 1, NoBackfill: true})
	defer s.Shutdown(context.Background())
	j := testJob(27)
	id := storeJob(t, s, j)
	res, e, err := core.CategorizeExplained(j, s.cfg, s.exOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutResult(id, s.fp, res); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutExplanation(id, s.fp, e); err != nil {
		t.Fatal(err)
	}
	code, body := getBodyFrom(t, s.Handler(), "/v1/stats")
	var stats struct {
		Store map[string]json.RawMessage `json:"store"`
	}
	if err := json.Unmarshal([]byte(body), &stats); code != http.StatusOK || err != nil {
		t.Fatalf("/v1/stats: status %d, %v: %s", code, err, body)
	}
	if _, ok := stats.Store["explanations"]; ok || string(stats.Store["traces"]) != "1" || string(stats.Store["results"]) != "1" {
		t.Fatalf("/v1/stats store section: %s", body)
	}
	_, metrics := getBodyFrom(t, s.Handler(), "/metrics")
	if strings.Contains(metrics, "mosaic_store_explanations") || !strings.Contains(metrics, "mosaic_store_results 1\n") {
		t.Fatal("/metrics exports an explanation count, or no result count")
	}
}

func TestRequestIDMiddleware(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(reqID string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		if reqID != "" {
			req.Header.Set("X-Request-Id", reqID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// A valid client ID is echoed unchanged.
	if got := get("abc-123").Header.Get("X-Request-Id"); got != "abc-123" {
		t.Fatalf("valid request ID not echoed: %q", got)
	}
	// No client ID: one is generated (16 hex chars).
	gen := get("").Header.Get("X-Request-Id")
	if len(gen) != 16 {
		t.Fatalf("generated request ID %q, want 16 hex chars", gen)
	}
	// Invalid client IDs are replaced, never echoed. (Only values the
	// Go HTTP client will transmit; control bytes are covered by the
	// direct middleware test below.)
	for _, bad := range []string{strings.Repeat("x", 200), "has\ttab"} {
		got := get(bad).Header.Get("X-Request-Id")
		if got == bad || got == "" {
			t.Fatalf("invalid request ID %q handled as %q", bad, got)
		}
	}
	// Two bare requests get distinct IDs.
	if a, b := get("").Header.Get("X-Request-Id"), get("").Header.Get("X-Request-Id"); a == b {
		t.Fatalf("request IDs not unique: %q", a)
	}
}

func TestValidRequestID(t *testing.T) {
	cases := []struct {
		id   string
		want bool
	}{
		{"", false},
		{"a", true},
		{"abc-123_XYZ.42", true},
		{strings.Repeat("a", 128), true},
		{strings.Repeat("a", 129), false},
		{"has space", false}, // space is <= ' '
		{"tab\there", false},
		{"high\x80bit", false},
		{"del\x7f", false},
	}
	for _, c := range cases {
		if got := validRequestID(c.id); got != c.want {
			t.Errorf("validRequestID(%q) = %v, want %v", c.id, got, c.want)
		}
	}
}

func TestRequestIDFrom(t *testing.T) {
	if id := RequestIDFrom(context.Background()); id != "" {
		t.Fatalf("RequestIDFrom(empty ctx) = %q, want empty", id)
	}
	var seen string
	h := RequestIDMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	}))
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("X-Request-Id", "ctx-check")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if seen != "ctx-check" {
		t.Fatalf("RequestIDFrom(handler ctx) = %q, want ctx-check", seen)
	}

	// A control byte in the header (never transmittable by a real
	// client, but possible from a buggy proxy) is replaced.
	req = httptest.NewRequest("GET", "/", nil)
	req.Header["X-Request-Id"] = []string{"bad\x7fbyte"}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen == "bad\x7fbyte" || seen == "" {
		t.Fatalf("control-byte request ID handled as %q", seen)
	}
	if echoed := rec.Header().Get("X-Request-Id"); echoed != seen {
		t.Fatalf("echoed ID %q != context ID %q", echoed, seen)
	}
}
