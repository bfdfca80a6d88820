package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// Ingest throughput: one request per trace vs. /v1/traces:batch, both
// over a Sync store so every acknowledgment implies durability. The
// batch path amortizes sniffing, decode, and — dominating everything —
// the fsync across the group, which is where the ≥10× comes from.
// These numbers are fsync-bound and therefore disk-dependent, so they
// are reported here rather than pinned in the bench-regression gate.

// benchBlobs returns n distinct canonical trace encodings.
func benchBlobs(b *testing.B, n int) [][]byte {
	b.Helper()
	blobs := make([][]byte, n)
	for i := range blobs {
		j := testJob(i)
		j.JobID = uint64(1_000_000 + i)
		data, err := darshan.MarshalBinary(j)
		if err != nil {
			b.Fatal(err)
		}
		blobs[i] = data
	}
	return blobs
}

// benchServer builds a serve stack over a Sync store with a result
// pre-stored for every blob, so ingests resolve as cache hits and the
// async categorization queue stays idle: what the timed loop measures
// is the ingest path itself — sniff, decode, content-address, durable
// persist — not the engine work both modes share.
func benchServer(b *testing.B, blobs [][]byte) (*Server, *httptest.Server) {
	b.Helper()
	dir := b.TempDir()
	st0, err := store.Open(dir, store.Options{}) // no Sync: fast pre-store
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{}.Normalized()
	fp := cfg.Fingerprint()
	j, err := darshan.UnmarshalBinary(blobs[0])
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Categorize(j, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, blob := range blobs {
		if err := st0.PutResult(store.HashBytes(blob), fp, res); err != nil {
			b.Fatal(err)
		}
	}
	if err := st0.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{Sync: true})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, QueueDepth: 16, NoBackfill: true})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		st.Close()
	})
	return s, ts
}

func post(b *testing.B, url, contentType string, body io.Reader) {
	b.Helper()
	resp, err := http.Post(url, contentType, body)
	if err != nil {
		b.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		b.Fatalf("ingest answered %d", resp.StatusCode)
	}
}

// BenchmarkIngestSingleHTTP ingests one trace per request: every
// request pays its own sniff, decode, store write, and fsync.
func BenchmarkIngestSingleHTTP(b *testing.B) {
	blobs := benchBlobs(b, b.N)
	_, ts := benchServer(b, blobs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(b, ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(blobs[i]))
	}
}

// BenchmarkIngestBatchHTTP ingests the same traces 128 per request via
// the length-prefixed batch framing; ns/op stays per-trace because b.N
// counts traces, not requests.
func BenchmarkIngestBatchHTTP(b *testing.B) {
	const batch = 128
	blobs := benchBlobs(b, b.N)
	_, ts := benchServer(b, blobs)
	b.ResetTimer()
	var body []byte
	for i := 0; i < b.N; i += batch {
		end := i + batch
		if end > b.N {
			end = b.N
		}
		body = body[:0]
		for _, blob := range blobs[i:end] {
			body = AppendBatchFrame(body, blob)
		}
		post(b, ts.URL+"/v1/traces:batch", BatchContentType, bytes.NewReader(body))
	}
}

// BenchmarkPutTraceBatch measures the store half alone: content
// addressing, framing, one staged write and one group-committed fsync
// per batch of 64, no HTTP in the way.
func BenchmarkPutTraceBatch(b *testing.B) {
	const batch = 64
	st, err := store.Open(b.TempDir(), store.Options{Sync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	blobs := benchBlobs(b, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		end := i + batch
		if end > b.N {
			end = b.N
		}
		ids := make([]store.TraceID, 0, batch)
		for _, blob := range blobs[i:end] {
			ids = append(ids, store.HashBytes(blob))
		}
		if _, err := st.PutTraceBatchKeyedCtx(context.Background(), ids, blobs[i:end]); err != nil {
			b.Fatal(err)
		}
	}
}
