package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// TestSingleIngestCostsOneFsync: on a Sync store, one single-trace POST
// /v1/traces and its categorization cost one group-committed fsync, the
// trace's. The result rides the next fsync instead of forcing its own.
func TestSingleIngestCostsOneFsync(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, _ := newTestServer(t, Config{Store: st, Workers: 1, QueueDepth: 4, NoBackfill: true})
	ts := httptest.NewServer(s.Handler())
	before := st.Stats().GroupSyncs
	id, _, err := store.TraceKey(testJob(3300))
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postBlob(t, ts.URL, encodeJob(t, testJob(3300))); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	waitResult(t, ts.URL, id)
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().GroupSyncs - before; got != 1 {
		t.Fatalf("one ingested and categorized trace cost %d group syncs, want 1", got)
	}
}

// TestBatchIngestCostsOneFsync: on a Sync store, a framed batch of four
// traces and the categorization of all four cost one group-committed
// fsync, the batch's. No result forces one of its own.
func TestBatchIngestCostsOneFsync(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, _ := newTestServer(t, Config{Store: st, Workers: 2, QueueDepth: 8, NoBackfill: true})
	ts := httptest.NewServer(s.Handler())
	before := st.Stats().GroupSyncs
	var ids []store.TraceID
	var blobs [][]byte
	for i := 0; i < 4; i++ {
		id, _, err := store.TraceKey(testJob(3500 + i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		blobs = append(blobs, encodeJob(t, testJob(3500+i)))
	}
	if resp, _ := postBatch(t, ts.URL, BatchContentType, batchBody(blobs...)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch ingest: status %d", resp.StatusCode)
	}
	for _, id := range ids {
		waitResult(t, ts.URL, id)
	}
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().GroupSyncs - before; got != 1 {
		t.Fatalf("a batch of %d traces and their results cost %d group syncs, want 1", len(ids), got)
	}
}

// TestBackfillRederivesResultsACrashTook crashes a Sync server after its
// results were written and before any fsync covered them: the disk image
// keeps the segment as the trace commits synced it, which drops the
// result frames. The restarted server's backfill derives every result
// again, byte-identical to the one the crash took, and leaves nothing
// pending.
func TestBackfillRederivesResultsACrashTook(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// The parked worker writes no result until every trace is acked.
	exec := &blockingExec{release: make(chan struct{}), inner: engine.Local{Workers: 1}}
	s, _ := newTestServer(t, Config{Store: st, Workers: 1, QueueDepth: 8, NoBackfill: true, Executor: exec})
	ts := httptest.NewServer(s.Handler())
	var ids []store.TraceID
	for i := 0; i < 4; i++ {
		j := testJob(3400 + i)
		id, _, err := store.TraceKey(j)
		if err != nil {
			t.Fatal(err)
		}
		if resp, body := postBlob(t, ts.URL, encodeJob(t, j)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %d: status %d: %s", i, resp.StatusCode, body)
		}
		ids = append(ids, id)
	}
	seg := filepath.Join(dir, "000001.seg")
	durable, err := os.ReadFile(seg) // every ack's fsync covered all of it
	if err != nil {
		t.Fatal(err)
	}
	syncs := st.Stats().GroupSyncs
	close(exec.release)
	bodies := make(map[store.TraceID]string)
	for _, id := range ids {
		bodies[id] = waitResult(t, ts.URL, id)
	}
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().GroupSyncs - syncs; got != 0 {
		t.Fatalf("%d fsyncs after the results were written: the crash image would hold them", got)
	}
	records := make(map[store.TraceID][]byte)
	for _, id := range ids {
		rec, ok, err := st.GetResultBytes(id, s.Fingerprint())
		if err != nil || !ok {
			t.Fatalf("result %s not stored (ok=%v err=%v)", id, ok, err)
		}
		records[id] = bytes.Clone(rec)
	}
	if whole, err := os.ReadFile(seg); err != nil || len(whole) <= len(durable) || !bytes.HasPrefix(whole, durable) {
		t.Fatalf("the results did not land after the synced prefix (%d of %d bytes, err %v)", len(whole), len(durable), err)
	}

	// The power cut: the image holds what the fsyncs made durable.
	img := t.TempDir()
	if err := os.WriteFile(filepath.Join(img, "000001.seg"), durable, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(img, store.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats(); got.Traces != len(ids) || got.Results != 0 {
		t.Fatalf("the image holds %d traces and %d results, want %d and 0", got.Traces, got.Results, len(ids))
	}
	s2, _ := newTestServer(t, Config{Store: st2, Workers: 2, QueueDepth: 8})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for _, id := range ids {
		if got := waitResult(t, ts2.URL, id); got != bodies[id] {
			t.Fatalf("backfill derived a different result for %s:\n%s\nwant\n%s", id, got, bodies[id])
		}
		rec, ok, err := st2.GetResultBytes(id, s2.Fingerprint())
		if err != nil || !ok || !bytes.Equal(rec, records[id]) {
			t.Fatalf("backfill stored a different record for %s (ok=%v err=%v)", id, ok, err)
		}
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := s2.PendingCount(); n != 0 {
		t.Fatalf("%d traces left pending after backfill", n)
	}
	if got := st2.Stats().Results; got != len(ids) {
		t.Fatalf("the healed store holds %d results, want %d", got, len(ids))
	}
}
