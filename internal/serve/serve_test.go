package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// testJob builds a small valid write-on-end trace whose content
// address varies with seed.
func testJob(seed int) *darshan.Job {
	j := &darshan.Job{
		JobID:   uint64(7000 + seed),
		UID:     42,
		User:    "tester",
		Exe:     fmt.Sprintf("/apps/sim%d", seed),
		NProcs:  4,
		Start:   0,
		End:     100,
		Runtime: 100,
	}
	j.Records = []darshan.FileRecord{{
		Module: darshan.ModPOSIX,
		Path:   "/scratch/out.dat",
		Rank:   -1,
		C: darshan.Counters{
			Opens: 1, Closes: 1, Writes: 10, BytesWritten: 200 << 20,
			OpenStart: 1, OpenEnd: 2, WriteStart: 90, WriteEnd: 99,
			CloseStart: 99, CloseEnd: 100,
		},
	}}
	return j
}

func encodeJob(t *testing.T, j *darshan.Job) []byte {
	t.Helper()
	data, err := darshan.MarshalBinary(j)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestServer(t *testing.T, cfg Config) (*Server, *store.Store) {
	t.Helper()
	if cfg.Store == nil {
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Store = st
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, cfg.Store
}

func postBlob(t *testing.T, url string, blob []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/traces", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

// waitResult polls /v1/results/{id} until it answers 200.
func waitResult(t *testing.T, url string, id store.TraceID) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := getBody(t, url+"/v1/results/"+string(id))
		switch resp.StatusCode {
		case http.StatusOK:
			return body
		case http.StatusAccepted:
			time.Sleep(10 * time.Millisecond)
		default:
			t.Fatalf("result %s: unexpected status %d: %s", id, resp.StatusCode, body)
		}
	}
	t.Fatalf("result %s never materialized", id)
	return ""
}

func TestServeIngestResultQueryStats(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blob := encodeJob(t, testJob(1))
	resp, body := postBlob(t, ts.URL, blob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first ingest: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"accepted"`) {
		t.Fatalf("first ingest not accepted: %s", body)
	}
	id, _, err := store.TraceKey(testJob(1))
	if err != nil {
		t.Fatal(err)
	}

	res := waitResult(t, ts.URL, id)
	if !strings.Contains(res, "write_on_end") {
		t.Fatalf("result missing write_on_end label: %s", res)
	}

	// Same trace again: served from the store, no recomputation.
	resp, body = postBlob(t, ts.URL, blob)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"cached"`) {
		t.Fatalf("re-ingest: status %d, body %s", resp.StatusCode, body)
	}
	if got := s.cacheHits.Value(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	if got := s.cacheMisses.Value(); got != 1 {
		t.Fatalf("cache misses = %d, want 1", got)
	}

	// The metric is also visible on the exposition endpoint.
	resp, metrics := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if !strings.Contains(metrics, "mosaic_serve_cache_hits_total 1") {
		t.Fatalf("/metrics missing cache hit counter:\n%s", metrics)
	}

	// Query over the live index.
	resp, q := getBody(t, ts.URL+"/v1/query?q=write_on_end+NOT+read_on_start")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/query status %d: %s", resp.StatusCode, q)
	}
	if !strings.Contains(q, string(id)) {
		t.Fatalf("query result missing trace id: %s", q)
	}

	resp, st := getBody(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats status %d", resp.StatusCode)
	}
	for _, want := range []string{s.Fingerprint(), `"indexed_traces": 1`, "temporality"} {
		if !strings.Contains(st, want) {
			t.Fatalf("/v1/stats missing %q:\n%s", want, st)
		}
	}

	resp, _ = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
}

func TestServeMultipartIngest(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i := 1; i <= 3; i++ {
		fw, err := mw.CreateFormFile("trace", fmt.Sprintf("job%d.mosd", i))
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(encodeJob(t, testJob(i)))
	}
	// One unreadable part rides along without sinking the request.
	fw, _ := mw.CreateFormFile("trace", "garbage.mosd")
	fw.Write([]byte("MOSDthis is not a trace"))
	mw.Close()

	resp, err := http.Post(ts.URL+"/v1/traces", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("multipart ingest: status %d, body %s", resp.StatusCode, body)
	}
	if got := strings.Count(string(body), `"accepted"`); got != 3 {
		t.Fatalf("accepted %d/3 parts: %s", got, body)
	}
	if !strings.Contains(string(body), `"unreadable"`) {
		t.Fatalf("garbage part not flagged unreadable: %s", body)
	}
	for i := 1; i <= 3; i++ {
		id, _, _ := store.TraceKey(testJob(i))
		waitResult(t, ts.URL, id)
	}
}

func TestServeHTTPErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		url  string
		want int
	}{
		{"/v1/results/zzz", http.StatusBadRequest},
		{"/v1/results/" + strings.Repeat("ab", 32), http.StatusNotFound},
		{"/v1/query", http.StatusBadRequest},
		{"/v1/query?q=%28broken", http.StatusBadRequest},
		{"/v1/query?q=no_such_cat_xyz", http.StatusBadRequest},
		{"/v1/query?q=write_on_end&limit=-1", http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := getBody(t, ts.URL+tc.url)
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d (%s)", tc.url, resp.StatusCode, tc.want, body)
		}
	}

	// Unreadable raw body is reported per-item.
	resp, body := postBlob(t, ts.URL, []byte("not a trace at all"))
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"unreadable"`) {
		t.Fatalf("garbage ingest: status %d, body %s", resp.StatusCode, body)
	}
	resp, body = postBlob(t, ts.URL, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty ingest: status %d, body %s", resp.StatusCode, body)
	}
}

// blockingExec parks every Categorize call until released, so tests
// can hold the worker pool busy deterministically.
type blockingExec struct {
	release chan struct{}
	inner   engine.Local
}

func (b *blockingExec) Categorize(ctx context.Context, j *darshan.Job, cfg core.Config) (*core.Result, error) {
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.inner.Categorize(ctx, j, cfg)
}

func (b *blockingExec) Concurrency() int { return 1 }

func (b *blockingExec) CategorizeExplained(ctx context.Context, j *darshan.Job, cfg core.Config, _ explain.Options) (*core.Result, *explain.Explanation, error) {
	res, err := b.Categorize(ctx, j, cfg)
	return res, nil, err
}

func TestServeBackpressure(t *testing.T) {
	exec := &blockingExec{release: make(chan struct{}), inner: engine.Local{Workers: 1}}
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Executor: exec})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Worker blocked + queue depth 1: at most two distinct traces can be
	// absorbed, so the third must be pushed back with 429.
	var saw429 bool
	for i := 0; i < 3; i++ {
		resp, body := postBlob(t, ts.URL, encodeJob(t, testJob(100+i)))
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			saw429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After header")
			}
			if !strings.Contains(string(body), `"rejected"`) {
				t.Fatalf("429 body lacks rejected item: %s", body)
			}
		default:
			t.Fatalf("ingest %d: unexpected status %d: %s", i, resp.StatusCode, body)
		}
	}
	if !saw429 {
		t.Fatal("queue never pushed back with 429")
	}

	close(exec.release)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after backpressure: %v", err)
	}
}

func TestServeGracefulDrainPreservesAcceptedTraces(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Store: st, Workers: 2, QueueDepth: 64})
	ts := httptest.NewServer(s.Handler())

	const n = 8
	var ids []store.TraceID
	for i := 0; i < n; i++ {
		blob := encodeJob(t, testJob(200+i))
		resp, body := postBlob(t, ts.URL, blob)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, resp.StatusCode, body)
		}
		id, _, err := store.TraceKey(testJob(200 + i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// Drain immediately: every accepted trace must still be categorized.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	ts.Close()
	for _, id := range ids {
		if !st.HasResult(id, s.Fingerprint()) {
			t.Fatalf("accepted trace %s lost on drain", id)
		}
	}
	wantMatches, err := s.Index().Query("write_on_end")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the rebuilt index must be identical.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := New(Config{Store: st2, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	if got := s2.Index().Len(); got != n {
		t.Fatalf("reopened index holds %d traces, want %d", got, n)
	}
	gotMatches, err := s2.Index().Query("write_on_end")
	if err != nil {
		t.Fatal(err)
	}
	if len(gotMatches) != len(wantMatches) {
		t.Fatalf("reopened query = %d matches, want %d", len(gotMatches), len(wantMatches))
	}
	for i := range gotMatches {
		if gotMatches[i] != wantMatches[i] {
			t.Fatalf("reopened index diverges at %d: %s != %s", i, gotMatches[i], wantMatches[i])
		}
	}
	for _, id := range ids {
		if cats, ok := s2.Index().Set(id); !ok || cats == 0 {
			t.Fatalf("reopened index lost categories of %s", id)
		}
	}
}

func TestServeBackfillHealsMissingResults(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash after durability but before categorization:
	// blobs in the store, no results.
	var ids []store.TraceID
	for i := 0; i < 5; i++ {
		id, _, err := st.PutTrace(testJob(300 + i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// A stored blob that does not decode is not skipped: it fails like
	// any trace a worker cannot read, and its result route says so.
	junk, _, err := st.PutTraceBytes([]byte("MOSD\x02\x00\x00\x00 not a trace body"))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Store: st, Workers: 2, QueueDepth: 16})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, id := range ids {
		waitResult(t, ts.URL, id)
	}
	if got := s.Index().Len(); got != 5 {
		t.Fatalf("backfill indexed %d traces, want 5", got)
	}
	if got := s.cacheMisses.Value(); got != 5 {
		t.Fatalf("backfill categorized %d traces, want 5", got)
	}
	waitFor(t, "the undecodable blob to be answered for", func() bool {
		resp, body := getBody(t, ts.URL+"/v1/results/"+string(junk))
		return resp.StatusCode == http.StatusUnprocessableEntity && strings.Contains(body, "decoding the stored trace")
	})
	if got := s.failures[failError].Value(); got != 1 {
		t.Fatalf("%d failures counted as %s, want the undecodable blob's", got, failError)
	}
}

func TestServeConcurrentIngestAndQuery(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 4, QueueDepth: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const producers, perProducer = 6, 15
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Query/stat readers run concurrently with the ingest storm.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := getBody(t, ts.URL+"/v1/query?q=write_on_end")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("concurrent query: status %d: %s", resp.StatusCode, body)
					return
				}
				resp, _ = getBody(t, ts.URL+"/v1/stats")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("concurrent stats: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	var ingestWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		ingestWG.Add(1)
		go func(p int) {
			defer ingestWG.Done()
			for i := 0; i < perProducer; i++ {
				blob := encodeJob(t, testJob(1000+p*perProducer+i))
				for {
					resp, body := postBlob(t, ts.URL, blob)
					if resp.StatusCode == http.StatusTooManyRequests {
						time.Sleep(5 * time.Millisecond)
						continue
					}
					if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
						t.Errorf("concurrent ingest: status %d: %s", resp.StatusCode, body)
					}
					break
				}
			}
		}(p)
	}
	ingestWG.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	close(stop)
	wg.Wait()

	if got := s.Index().Len(); got != producers*perProducer {
		t.Fatalf("indexed %d traces, want %d", got, producers*perProducer)
	}
}
