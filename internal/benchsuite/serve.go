package benchsuite

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/events"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/index"
	"github.com/mosaic-hpc/mosaic/internal/serve"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// The serve benchmarks pin the request-tracing overhead budget: the
// same warm cache-hit ingest is measured with tracing on (root span,
// decode/commit child spans, flight-recorder retention, latency
// exemplar) and off. Both land in BENCH_serve.json, so the regression
// gate catches the traced path drifting away from the untraced one —
// the tracing layer's contract is <5% on this path.

// The ingest payload is ingestTrace() — the same deterministic 200-record
// mid-size production-shaped log the decode/encode benchmarks pin — so
// the overhead ratio reflects what a real request pays, not a toy blob
// whose handler cost is all framing.

// resultStore opens a store holding the result of ingestTrace() under
// the default configuration — with its blob too when withBlob is set — and
// returns it with the blob.
func resultStore(b *testing.B, withBlob bool) (*store.Store, []byte) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	j := ingestTrace()
	blob, err := darshan.MarshalBinary(j)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{}.Normalized()
	res, err := core.Categorize(j, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if withBlob {
		if _, _, err := st.PutTraceBytes(blob); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.PutResult(store.HashBytes(blob), cfg.Fingerprint(), res); err != nil {
		b.Fatal(err)
	}
	return st, blob
}

// shutdown stops s and closes its store.
func shutdown(s *serve.Server, st *store.Store) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
	st.Close()
}

// ServeIngestObserved measures the same warm cache-hit ingest with the
// event journal persisted versus not. On: the journal tees every event
// into a CRC-framed append log. Off: the journal is left unsunk. The
// two arms differ by the journal sink alone; tracing and the runtime
// metrics are on in both (the production default). The contract is <5%
// on this path: events fire on state transitions rather than per
// request, so a healthy request pays nothing.
func ServeIngestObserved(on bool) func(b *testing.B) {
	return func(b *testing.B) {
		st, blob := resultStore(b, false)
		scfg := serve.Config{
			Store: st, Workers: 1, QueueDepth: 16, NoBackfill: true,
		}
		if on {
			sink, err := store.OpenAppendLog(filepath.Join(b.TempDir(), "events.log"), false)
			if err != nil {
				b.Fatal(err)
			}
			defer sink.Close()
			scfg.Events = events.NewLog(events.Config{Node: "bench", Sink: sink})
		}
		s, err := serve.New(scfg)
		if err != nil {
			b.Fatal(err)
		}
		defer shutdown(s, st)
		h := s.Handler()
		rd := bytes.NewReader(nil)
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(blob)
			req := httptest.NewRequest("POST", "/v1/traces", rd)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 300 {
				b.Fatalf("ingest answered %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
}

// instantExec answers every categorization with one precomputed result,
// so a benchmark can keep the worker pool draining without timing the
// detection chain.
type instantExec struct{ res *core.Result }

func (e instantExec) Categorize(context.Context, *darshan.Job, core.Config) (*core.Result, error) {
	return e.res, nil
}
func (e instantExec) CategorizeExplained(context.Context, *darshan.Job, core.Config, explain.Options) (*core.Result, *explain.Explanation, error) {
	return e.res, nil, nil
}
func (instantExec) Concurrency() int { return 1 }

// ServeIngestFresh measures one never-seen canonical single-trace POST
// per iteration through the full handler chain: the sized body read,
// one canonical walk, one SHA-256 pass, one copy into the store's
// staging buffer, the append, the enqueue of the ID and the JSON answer —
// the write path a collector's raw MarshalBinary upload takes — plus,
// on the workers, the read of the stored blob and its decode into each
// worker's own job. Its B/op is the allocation budget of that path (the
// upload itself is ≈45 KB; a second copy of it anywhere shows, and so
// does a job built per upload). Categorization is stubbed out and the loop
// yields while the two workers are behind, so the bounded queue never
// answers 429. Distinct content per iteration comes from rewriting the
// JobID bytes in place, as IngestStoreAppend does; every freshEpoch
// iterations the server moves to an empty store (off the clock), which
// bounds the disk a run of any length occupies to about 50 MB.
func ServeIngestFresh(b *testing.B) {
	const (
		depth      = 256
		freshEpoch = 1024
	)
	j := ingestTrace()
	blob, err := darshan.MarshalBinary(j)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Categorize(j, core.Config{}.Normalized())
	if err != nil {
		b.Fatal(err)
	}
	var (
		s  *serve.Server
		h  http.Handler
		st *store.Store
	)
	stop := func() {
		if s == nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		st.Close()
	}
	defer stop()
	dir := filepath.Join(b.TempDir(), "store")
	rd := bytes.NewReader(nil)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%freshEpoch == 0 {
			b.StopTimer()
			stop()
			if err := os.RemoveAll(dir); err != nil {
				b.Fatal(err)
			}
			if st, err = store.Open(dir, store.Options{}); err != nil {
				b.Fatal(err)
			}
			s, err = serve.New(serve.Config{
				Store: st, Workers: 2, QueueDepth: depth, NoBackfill: true,
				Executor: instantExec{res: res},
			})
			if err != nil {
				b.Fatal(err)
			}
			h = s.Handler()
			b.StartTimer()
		}
		for s.PendingCount() >= depth/2 {
			runtime.Gosched()
		}
		binary.LittleEndian.PutUint64(blob[8:], uint64(i))
		rd.Reset(blob)
		req := httptest.NewRequest("POST", "/v1/traces", rd)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			b.Fatalf("ingest answered %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// ServeQueryOrPage measures one unlimited /v1/query answer of about ten
// thousand IDs (≈720 KB of JSON) per iteration through the full handler
// chain with tracing on — the bench/ query workload's or_page request,
// which is where that workload's server CPU went while the answer was
// built by encoding/json: evaluation, the ID list, the body.
func ServeQueryOrPage(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := serve.New(serve.Config{Store: st, Workers: 1, QueueDepth: 16, NoBackfill: true})
	if err != nil {
		b.Fatal(err)
	}
	defer shutdown(s, st)
	entries := make([]index.Entry, 48_000)
	for i := range entries {
		cats := category.NewSet("read_on_start")
		if i%5 == 0 {
			cats.Add("write_on_end")
		}
		if i%97 == 0 {
			cats.Add("write_periodic")
		}
		entries[i] = index.Entry{ID: store.TraceID(fmt.Sprintf("%064x", i)), Cats: cats}
	}
	s.Index().Load(entries)
	h := s.Handler()
	const target = "/v1/query?q=write_on_end+OR+write_periodic"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := discardResponse{h: http.Header{}}
		h.ServeHTTP(&w, httptest.NewRequest("GET", target, nil))
		if w.code != http.StatusOK || w.n < 700_000 {
			b.Fatalf("query answered %d with %d bytes", w.code, w.n)
		}
		b.SetBytes(w.n)
	}
}

// discardResponse is a ResponseWriter that keeps the status and the
// body's length: a recorder growing a buffer to the size of the answer
// would be most of what the benchmark allocates.
type discardResponse struct {
	h    http.Header
	code int
	n    int64
}

func (w *discardResponse) Header() http.Header  { return w.h }
func (w *discardResponse) WriteHeader(code int) { w.code = code }
func (w *discardResponse) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// ServeIngestWarm measures one warm cache-hit ingest per iteration
// through the full serve handler chain — request-ID middleware, trace
// middleware (or its identity twin), sniff, canonical walk, content
// addressing, stored-result lookup, JSON response — no decode, since a
// cached trace never becomes a job — with no network and no fsync in
// the way, so the traced/untraced delta is the tracing layer itself.
func ServeIngestWarm(traced bool) func(b *testing.B) {
	return func(b *testing.B) {
		st, blob := resultStore(b, false)
		s, err := serve.New(serve.Config{
			Store: st, Workers: 1, QueueDepth: 16,
			NoBackfill: true, DisableTracing: !traced,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer shutdown(s, st)
		h := s.Handler()
		rd := bytes.NewReader(nil)
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(blob)
			req := httptest.NewRequest("POST", "/v1/traces", rd)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 300 {
				b.Fatalf("ingest answered %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
}

// corpusResults categorizes the pipeline corpus once: 120 results of the
// sizes and shapes production stores hold (≈1 KB each as served).
var corpusResults = sync.OnceValue(func() []*core.Result {
	cfg := core.DefaultConfig()
	var out []*core.Result
	for _, j := range corpusJobs() {
		if res, err := core.Categorize(j, cfg); err == nil {
			out = append(out, res)
		}
	}
	return out
})

// resultStoreN is how many results the result-read benchmarks store:
// about 20 MB of records.
const resultStoreN = 20_000

// ServeResult measures one GET /v1/results/{id} per iteration through
// the full handler chain with tracing on, over a store of resultStoreN
// results read round-robin. hot gives the store's read cache room for
// all of them, so after the first lap every read is a cache hit; cold
// gives it 256 KiB — about 1 % of the records — so every read is a miss
// and a pread (the bench/ query workload sits between the two, with a
// cache a tenth of its store). Either way the route is a lookup and a
// Write of stored bytes: no result is decoded or encoded.
func ServeResult(hot bool) func(b *testing.B) {
	return func(b *testing.B) {
		opts := store.Options{CacheBytes: 256 << 10}
		if hot {
			opts.CacheBytes = 64 << 20
		}
		st, err := store.Open(b.TempDir(), opts)
		if err != nil {
			b.Fatal(err)
		}
		fp := core.Config{}.Normalized().Fingerprint()
		results := corpusResults()
		targets := make([]string, resultStoreN)
		for i := range targets {
			id := store.TraceID(fmt.Sprintf("%064x", i))
			if err := st.PutResult(id, fp, results[i%len(results)]); err != nil {
				b.Fatal(err)
			}
			targets[i] = "/v1/results/" + string(id)
		}
		s, err := serve.New(serve.Config{Store: st, Workers: 1, QueueDepth: 16, NoBackfill: true})
		if err != nil {
			b.Fatal(err)
		}
		defer shutdown(s, st)
		h := s.Handler()
		get := func(i int) {
			w := discardResponse{h: http.Header{}}
			h.ServeHTTP(&w, httptest.NewRequest("GET", targets[i%resultStoreN], nil))
			if w.code != http.StatusOK || w.n < 500 {
				b.Fatalf("%s answered %d with %d bytes", targets[i%resultStoreN], w.code, w.n)
			}
		}
		if hot {
			for i := range targets {
				get(i)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(i)
		}
	}
}

// ServeExplain measures one warm GET /v1/explain/{id} per iteration
// through the full handler chain with tracing on, over ingestTrace's
// stored blob and result: the read and decode of the blob, the explained
// categorization, the label check and the JSON encoding of the record.
func ServeExplain(b *testing.B) {
	st, blob := resultStore(b, true)
	s, err := serve.New(serve.Config{Store: st, Workers: 1, QueueDepth: 16, NoBackfill: true})
	if err != nil {
		b.Fatal(err)
	}
	defer shutdown(s, st)
	h, target := s.Handler(), "/v1/explain/"+string(store.HashBytes(blob))
	get := func() {
		w := discardResponse{h: http.Header{}}
		h.ServeHTTP(&w, httptest.NewRequest("GET", target, nil))
		if w.code != http.StatusOK {
			b.Fatalf("%s answered %d", target, w.code)
		}
	}
	get() // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

// StorePutResult measures one Store.PutResult per iteration — encode the
// result as it will be served, frame it, append it, index it (the read
// cache admits nothing on a write) — without fsync, over the corpus results
// (BenchmarkStore/put_result). This is the write side of the served
// form: it has to stay under what json.Marshal of the compact document
// cost.
func StorePutResult(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	const fp = "cfg-benchstore000000"
	results := corpusResults()
	ids := make([]store.TraceID, 4096)
	for i := range ids {
		ids[i] = store.TraceID(fmt.Sprintf("%064x", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.PutResult(ids[i%len(ids)], fp, results[i%len(results)]); err != nil {
			b.Fatal(err)
		}
	}
}
