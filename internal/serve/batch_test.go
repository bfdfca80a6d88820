package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// batchBody encodes blobs as a length-prefixed batch request body.
func batchBody(blobs ...[]byte) *bytes.Reader {
	var body []byte
	for _, b := range blobs {
		body = AppendBatchFrame(body, b)
	}
	return bytes.NewReader(body)
}

type ingestResponse struct {
	Results []IngestItem `json:"results"`
}

func postBatch(t *testing.T, url, contentType string, body io.Reader) (*http.Response, ingestResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/traces:batch", contentType, body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var ir ingestResponse
	if err := json.Unmarshal(raw, &ir); err != nil && resp.StatusCode < 500 {
		// Error responses are {"error": ...}; leave Results empty.
		ir = ingestResponse{}
	}
	return resp, ir
}

func TestServeBatchIngestFramed(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blobs := [][]byte{
		encodeJob(t, testJob(1)),
		encodeJob(t, testJob(2)),
		[]byte("MOSDgarbage"),          // unreadable rides along
		encodeJob(t, testJob(1)),       // duplicate of the first frame
		[]byte(`{"nprocs": "broken"!`), // unreadable JSON
		encodeJob(t, testJob(3)),
	}
	resp, ir := postBatch(t, ts.URL, BatchContentType, batchBody(blobs...))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch ingest: status %d", resp.StatusCode)
	}
	if len(ir.Results) != len(blobs) {
		t.Fatalf("batch answered %d items for %d frames", len(ir.Results), len(blobs))
	}
	byStatus := map[string]int{}
	for _, it := range ir.Results {
		byStatus[it.Status]++
	}
	// The duplicate decodes to the same content address: one of the two
	// is accepted, the other is deduplicated as pending.
	if byStatus[StatusUnreadable] != 2 {
		t.Fatalf("unreadable = %d, want 2 (%v)", byStatus[StatusUnreadable], byStatus)
	}
	if byStatus[StatusAccepted]+byStatus[StatusPending]+byStatus[StatusCached] != 4 {
		t.Fatalf("readable frames unaccounted: %v", byStatus)
	}
	for i := 1; i <= 3; i++ {
		id, _, err := store.TraceKey(testJob(i))
		if err != nil {
			t.Fatal(err)
		}
		waitResult(t, ts.URL, id)
	}
}

func TestServeBatchIngestMultipart(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
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
	mw.Close()
	resp, ir := postBatch(t, ts.URL, mw.FormDataContentType(), &buf)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("multipart batch: status %d", resp.StatusCode)
	}
	if len(ir.Results) != 3 {
		t.Fatalf("multipart batch answered %d items, want 3", len(ir.Results))
	}
	for _, it := range ir.Results {
		if it.Status != StatusAccepted {
			t.Fatalf("part %q: status %q, want accepted", it.Name, it.Status)
		}
	}
	for i := 1; i <= 3; i++ {
		id, _, _ := store.TraceKey(testJob(i))
		waitResult(t, ts.URL, id)
	}
}

func TestServeBatchIngestErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4, NoBackfill: true})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Wrong content type.
	resp, _ := postBatch(t, ts.URL, "text/plain", strings.NewReader("hi"))
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain batch: status %d, want 415", resp.StatusCode)
	}
	// Empty body.
	resp, _ = postBatch(t, ts.URL, BatchContentType, bytes.NewReader(nil))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	// Torn frame: length prefix promises more bytes than the body holds.
	torn := AppendBatchFrame(nil, encodeJob(t, testJob(1)))
	torn = append(torn, 0xFF, 0xFF, 0x00, 0x00) // 64 KiB frame, no payload
	resp, _ = postBatch(t, ts.URL, BatchContentType, bytes.NewReader(torn))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn batch: status %d, want 400", resp.StatusCode)
	}
	// A frame above the upload limit is rejected outright.
	s2, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4, MaxUploadBytes: 64, NoBackfill: true})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, _ = postBatch(t, ts2.URL, BatchContentType, batchBody(encodeJob(t, testJob(1))))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized frame: status %d, want 400", resp.StatusCode)
	}
}

func TestServeBatchBackpressure(t *testing.T) {
	// One worker, a tiny queue, and a batch bigger than both: the
	// overflow must answer 429 with per-item rejected statuses while
	// accepted items survive.
	exec := &blockingExec{release: make(chan struct{}), inner: engine.Local{Workers: 1}}
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 2, NoBackfill: true, Executor: exec})
	defer func() {
		close(exec.release)
		s.Shutdown(context.Background())
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var blobs [][]byte
	for i := 0; i < 8; i++ {
		blobs = append(blobs, encodeJob(t, testJob(100+i)))
	}
	resp, ir := postBatch(t, ts.URL, BatchContentType, batchBody(blobs...))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflowing batch: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	accepted, rejected := 0, 0
	for _, it := range ir.Results {
		switch it.Status {
		case StatusAccepted:
			accepted++
		case StatusRejected:
			rejected++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("want a mix of accepted and rejected, got %d/%d", accepted, rejected)
	}
	// Every blob — accepted or rejected — is already durable: batch
	// persistence happens before queueing.
	for i := range blobs {
		id := store.HashBytes(blobs[i])
		if !s.st.HasTrace(id) {
			t.Fatalf("blob %d not persisted despite queue overflow", i)
		}
	}
}

// TestBatchBodyGoldenBytes pins the x-mosaic-batch encoding clients
// write: [u32 little-endian length][blob], repeated.
func TestBatchBodyGoldenBytes(t *testing.T) {
	body := AppendBatchFrame(AppendBatchFrame(nil, []byte("ab")), []byte("c"))
	want := []byte{2, 0, 0, 0, 'a', 'b', 1, 0, 0, 0, 'c'}
	if !bytes.Equal(body, want) {
		t.Fatalf("batch body = %v, want %v", body, want)
	}
	ups, err := readBatchFrames(bytes.NewReader(body), 16)
	if err != nil || len(ups) != 2 || string(ups[0].data) != "ab" || string(ups[1].data) != "c" {
		t.Fatalf("reading it back: %+v, %v", ups, err)
	}
}
