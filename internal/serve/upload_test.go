package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/darshan/mosdtest"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// uploadEncodings returns one trace in every encoding the ingest edge
// accepts, keyed by name: the canonical one (a raw-body version-2 MOSD
// blob, its own content-addressed form) and six that are not — among
// them the file encoding with its prelude over a compact body (version
// 4), over a gzip one (version 3), and without a prelude.
func uploadEncodings(t *testing.T, seed int) map[string][]byte {
	t.Helper()
	j := testJob(seed)
	j.Metadata = map[string]string{"key-a": "1", "key-b": "2"}
	canonical := encodeJob(t, j)
	var file, js, txt bytes.Buffer
	if err := darshan.WriteBinary(&file, j); err != nil {
		t.Fatal(err)
	}
	if err := darshan.WriteJSON(&js, j); err != nil {
		t.Fatal(err)
	}
	if err := darshan.WriteParserText(&txt, j); err != nil {
		t.Fatal(err)
	}
	// Metadata keys out of order: "key-c" now precedes "key-b".
	unsorted := bytes.Replace(canonical, []byte("key-a"), []byte("key-c"), 1)
	return map[string][]byte{
		"canonical":         canonical,
		"file":              file.Bytes(),
		"json":              js.Bytes(),
		"text":              txt.Bytes(),
		"gzip-v3":           mosdtest.V3File(t, file.Bytes(), canonical),
		"gzip-v2":           mosdtest.V2File(t, canonical),
		"unsorted-metadata": unsorted,
	}
}

// wantUploadID is the ID every ingest path must acknowledge an upload
// under: store.TraceKey of the job it decodes to.
func wantUploadID(t *testing.T, data []byte) store.TraceID {
	t.Helper()
	job, err := decodeBlob(data)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := store.TraceKey(job)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func multipartBody(t *testing.T, names []string, blobs [][]byte) (string, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i, blob := range blobs {
		fw, err := mw.CreateFormFile("trace", names[i])
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(blob)
	}
	mw.Close()
	return mw.FormDataContentType(), &buf
}

// TestUploadIDsAndSingleHash drives every accepted encoding through
// every body reader of the one write path — raw, multipart, framed — and
// through the entry node of a three-node ring (local, forwarded and
// replicated blobs), and holds each to two things: the acknowledged ID
// is store.TraceKey of the decoded job, and between socket and segment
// each uploaded blob is content-addressed exactly once, by the
// process-wide store.HashPasses counter (peers trust the entry node's
// IDs, so the whole in-process ring counts as one path).
func TestUploadIDsAndSingleHash(t *testing.T) {
	single, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 256, NoBackfill: true})
	defer single.Shutdown(context.Background())
	ts := httptest.NewServer(single.Handler())
	defer ts.Close()
	ring := startTestCluster(t, 3)

	type path struct {
		name string
		post func(t *testing.T, names []string, blobs [][]byte) []IngestItem
	}
	decode := func(t *testing.T, resp *http.Response, err error) []IngestItem {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ir ingestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %+v", resp.StatusCode, ir)
		}
		return ir.Results
	}
	framed := func(url string) func(*testing.T, []string, [][]byte) []IngestItem {
		return func(t *testing.T, _ []string, blobs [][]byte) []IngestItem {
			resp, err := http.Post(url+"/v1/traces:batch", BatchContentType, batchBody(blobs...))
			return decode(t, resp, err)
		}
	}
	paths := []path{
		{"raw", func(t *testing.T, _ []string, blobs [][]byte) []IngestItem {
			var items []IngestItem
			for _, blob := range blobs {
				resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(blob))
				items = append(items, decode(t, resp, err)...)
			}
			return items
		}},
		{"multipart", func(t *testing.T, names []string, blobs [][]byte) []IngestItem {
			ct, body := multipartBody(t, names, blobs)
			resp, err := http.Post(ts.URL+"/v1/traces", ct, body)
			return decode(t, resp, err)
		}},
		{"framed", framed(ts.URL)},
		{"cluster entry", framed(ring.nodes[0].http.URL)},
	}
	for pi, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			// Several traces per encoding, so the ring case spreads over
			// local and forwarded owners.
			var (
				names []string
				blobs [][]byte
				want  []store.TraceID
			)
			for k := 0; k < 4; k++ {
				encs := uploadEncodings(t, 2000+10*pi+k)
				var order []string
				for name := range encs {
					order = append(order, name)
				}
				sort.Strings(order)
				for _, name := range order {
					names = append(names, fmt.Sprintf("%s-%d", name, k))
					blobs = append(blobs, encs[name])
					want = append(want, wantUploadID(t, encs[name]))
				}
			}
			before := store.HashPasses()
			items := p.post(t, names, blobs)
			hashed := store.HashPasses() - before
			if len(items) != len(blobs) {
				t.Fatalf("%d items for %d uploads", len(items), len(blobs))
			}
			for i, it := range items {
				if it.ID != want[i] {
					t.Errorf("%s: acknowledged as %s, store.TraceKey gives %s (status %s %s)",
						names[i], it.ID, want[i], it.Status, it.Error)
				}
			}
			if hashed != int64(len(blobs)) {
				t.Errorf("%d uploads cost %d SHA-256 passes, want one each", len(blobs), hashed)
			}
		})
	}
}

// spyBody records the slices the server reads the request body into.
type spyBody struct {
	r     io.Reader
	reads [][]byte
}

func (b *spyBody) Read(p []byte) (int, error) {
	b.reads = append(b.reads, p)
	return b.r.Read(p)
}

// TestUploadBufferReleasedSafely is the poison test for the pooled read
// buffer: once the handler has returned the buffer is fair game, so
// overwrite it and check that what the request left behind — the stored
// blob and the result the worker later derives from it — never looked at
// it again.
func TestUploadBufferReleasedSafely(t *testing.T) {
	exec := &blockingExec{release: make(chan struct{})}
	s, st := newTestServer(t, Config{Workers: 1, QueueDepth: 4, NoBackfill: true, Executor: exec})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job := testJob(2100)
	blob := encodeJob(t, job)
	id := store.HashBytes(blob)
	body := &spyBody{r: bytes.NewReader(blob)}
	req := httptest.NewRequest("POST", "/v1/traces", body)
	req.ContentLength = int64(len(blob))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted || !strings.Contains(rec.Body.String(), string(id)) {
		t.Fatalf("ingest: status %d body %s", rec.Code, rec.Body.String())
	}
	// One sized read: the whole declared length offered to the body at
	// once, not ReadAll's 512-byte-and-doubling probes.
	if len(body.reads) == 0 || len(body.reads[0]) != len(blob) {
		t.Fatalf("first read offered %d bytes, want the declared %d", len(body.reads[0]), len(blob))
	}
	// The categorization is parked in the executor, the handler long
	// gone. Poison everything the body was read into.
	for _, p := range body.reads {
		p = p[:cap(p)]
		for i := range p {
			p[i] = 0xAA
		}
	}
	stored, ok, err := st.GetTraceBytes(id)
	if err != nil || !ok || !bytes.Equal(stored, blob) {
		t.Fatalf("stored blob differs from the upload after its buffer was overwritten (ok=%v err=%v)", ok, err)
	}
	close(exec.release)
	got := waitResult(t, ts.URL, id)
	want, err := core.Categorize(job, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	if err := json.Unmarshal([]byte(got), &res); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Labels) != fmt.Sprint(want.Labels) {
		t.Fatalf("result labels %v, want %v", res.Labels, want.Labels)
	}
}

// TestUploadLengthEdges pins what the sized read must not change: a
// declared length over the limit is still 413, an upload without a
// declared length (chunked) is still accepted, and a body shorter than
// its declared length is still 400.
func TestUploadLengthEdges(t *testing.T) {
	blob := encodeJob(t, testJob(2200))
	s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true, MaxUploadBytes: int64(len(blob))})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// At the limit: accepted through the sized read.
	if resp, body := postBlob(t, ts.URL, blob); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload at the limit: status %d body %s", resp.StatusCode, body)
	}
	// One byte over, declared.
	over := append(append([]byte(nil), blob...), 0)
	if resp, body := postBlob(t, ts.URL, over); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared length over the limit: status %d body %s", resp.StatusCode, body)
	}
	// Chunked: a reader net/http cannot size.
	chunked := func(data []byte) *http.Response {
		req, err := http.NewRequest("POST", ts.URL+"/v1/traces", io.MultiReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		if req.ContentLength > 0 {
			t.Fatal("test request carries a length; it would not be chunked")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	other := encodeJob(t, testJob(2201))
	if resp := chunked(other); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunked upload: status %d", resp.StatusCode)
	}
	if resp := chunked(over); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked upload over the limit: status %d", resp.StatusCode)
	}
	// Short body: declare the whole blob, send half, end the stream.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/traces HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", len(blob))
	conn.Write(blob[:len(blob)/2])
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("body shorter than its declared length: status %d", resp.StatusCode)
	}
}
