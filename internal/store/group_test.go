package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

// encodedJob returns the canonical blob of testJob(seed).
func encodedJob(t *testing.T, seed int) []byte {
	t.Helper()
	data, err := darshan.MarshalBinary(testJob(seed))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// putTraceBatch content-addresses blobs the way the ingest edge does and
// stores them through the keyed batch put.
func putTraceBatch(t *testing.T, s *Store, blobs [][]byte) ([]TraceID, []bool) {
	t.Helper()
	ids := make([]TraceID, len(blobs))
	for i, b := range blobs {
		ids[i] = HashBytes(b)
	}
	dup, err := s.PutTraceBatchKeyedCtx(context.Background(), ids, blobs)
	if err != nil {
		t.Fatal(err)
	}
	return ids, dup
}

// copyDir clones a store directory byte-for-byte: the "what the disk
// held at the moment of the crash" snapshot, taken without closing the
// live store (a crashed process never closes cleanly).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestPutTraceBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Pre-store blob 0 so the batch sees a store-level duplicate.
	pre, _, err := s.PutTraceBytes(encodedJob(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	blobs := [][]byte{
		encodedJob(t, 0), // duplicate of a stored trace
		encodedJob(t, 1),
		encodedJob(t, 2),
		encodedJob(t, 1), // duplicate within the batch
		encodedJob(t, 3),
	}
	ids, dup := putTraceBatch(t, s, blobs)
	if ids[0] != pre {
		t.Fatal("content address must not depend on the ingest path")
	}
	wantDup := []bool{true, false, false, true, false}
	for i, want := range wantDup {
		if dup[i] != want {
			t.Fatalf("dup[%d] = %v, want %v", i, dup[i], want)
		}
	}
	if st := s.Stats(); st.Traces != 4 {
		t.Fatalf("stored %d traces, want 4 (duplicates collapsed)", st.Traces)
	}
	for i, id := range ids {
		got, ok, err := s.GetTraceBytes(id)
		if err != nil || !ok || !bytes.Equal(got, blobs[i]) {
			t.Fatalf("blob %d unreadable after batch put (ok=%v err=%v)", i, ok, err)
		}
	}
}

func TestPutTraceBatchSingleFsync(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var blobs [][]byte
	for i := 0; i < 16; i++ {
		blobs = append(blobs, encodedJob(t, i))
	}
	putTraceBatch(t, s, blobs)
	st := s.Stats()
	if st.GroupSyncs != 1 {
		t.Fatalf("a batch must cost one fsync, got %d", st.GroupSyncs)
	}
	if st.SyncedFrames != 16 {
		t.Fatalf("that fsync must cover all 16 frames, covered %d", st.SyncedFrames)
	}
}

// TestBatchCrashRecovery simulates a kill mid-batch: the tail of the
// last staged frame never reaches disk. On reopen, only the torn frame
// is dropped — every fully written record of the batch survives.
func TestBatchCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var blobs [][]byte
	for i := 0; i < 8; i++ {
		blobs = append(blobs, encodedJob(t, i))
	}
	ids, _ := putTraceBatch(t, s, blobs)
	s.Close()

	segPath := filepath.Join(dir, "000001.seg")
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear off the last frame's CRC plus part of its value.
	if err := os.Truncate(segPath, info.Size()-int64(frameCRCLen)-10); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Traces != 7 {
		t.Fatalf("recovered %d traces, want 7 (only the torn frame dropped)", st.Traces)
	}
	for i := 0; i < 7; i++ {
		got, ok, err := s2.GetTraceBytes(ids[i])
		if err != nil || !ok || !bytes.Equal(got, blobs[i]) {
			t.Fatalf("batch record %d lost to a crash after its frame was complete", i)
		}
	}
	if s2.HasTrace(ids[7]) {
		t.Fatal("torn frame must not be indexed")
	}
}

// TestSyncBatchDurableWithoutClose is the acked-durability contract:
// once the batch put returns under Options.Sync, a crash (no Close, no
// further writes) loses nothing — the snapshot of the disk already
// holds every acked trace.
func TestSyncBatchDurableWithoutClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	var blobs [][]byte
	for i := 0; i < 6; i++ {
		blobs = append(blobs, encodedJob(t, i))
	}
	ids, _ := putTraceBatch(t, s, blobs)
	crashed := copyDir(t, dir) // snapshot before any clean shutdown
	s.Close()

	s2, err := Open(crashed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, id := range ids {
		got, ok, err := s2.GetTraceBytes(id)
		if err != nil || !ok || !bytes.Equal(got, blobs[i]) {
			t.Fatalf("acked trace %d not durable at crash time (ok=%v err=%v)", i, ok, err)
		}
	}
}

// TestGroupCommitConcurrentWriters drives many synchronous writers at
// once: every acked put must be durable, and the fsync count must show
// grouping (fewer syncs than frames) rather than one flush per record.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: true, MaxSegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, _, err := s.PutTrace(testJob(w*perWriter + i)); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Traces != writers*perWriter {
		t.Fatalf("stored %d traces, want %d", st.Traces, writers*perWriter)
	}
	if st.SyncedFrames < int64(writers*perWriter) {
		t.Fatalf("only %d frames acked durable, want >= %d", st.SyncedFrames, writers*perWriter)
	}
	t.Logf("group commit: %d frames durable across %d fsyncs", st.SyncedFrames, st.GroupSyncs)
	crashed := copyDir(t, dir)
	s.Close()

	s2, err := Open(crashed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Traces; got != writers*perWriter {
		t.Fatalf("crash snapshot recovered %d traces, want %d (acked writes lost)", got, writers*perWriter)
	}
}

// TestEachLiveTraceFrames: the sequential reader delivers every trace
// blob across segment rotation, skips the other record kinds, and stops
// when asked.
func TestEachLiveTraceFrames(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 2 << 10}) // force rotation mid-corpus
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := make(map[TraceID][]byte)
	fp := "fp-x"
	for i := 0; i < 10; i++ {
		blob := encodedJob(t, i)
		id, _, err := s.PutTraceBytes(blob)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = blob
		// Interleave non-trace records: the scan must skip them.
		if err := s.PutResult(id, fp, testResult(t, testJob(i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Segments < 2 {
		t.Fatal("test needs multiple segments to cover the rotation path")
	}
	got := make(map[TraceID][]byte)
	err = s.eachLive("t/", func(kind byte, key, blob []byte) bool {
		id := TraceID(key[len("t/"):])
		if kind != kindTrace || HashBytes(blob) != id {
			t.Fatalf("blob content does not match its address %s", id)
		}
		got[id] = append([]byte(nil), blob...) // the slice is reused
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d blobs, want %d", len(got), len(want))
	}
	for id, blob := range want {
		if !bytes.Equal(got[id], blob) {
			t.Fatalf("blob %s corrupted by sequential scan", id)
		}
	}
	// Early stop.
	n := 0
	if err := s.eachLive("t/", func(byte, []byte, []byte) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early stop visited %d blobs, want 3", n)
	}
}

// TestScanSegmentReadahead pins the buffered scan against ReadAt-based
// reads: both views of the same segment must agree.
func TestScanSegmentReadahead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []TraceID
	for i := 0; i < 20; i++ {
		id, _, err := s.PutTraceBytes(encodedJob(t, i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, id := range ids {
		blob, ok, err := s2.GetTraceBytes(id)
		if err != nil || !ok {
			t.Fatalf("trace %s lost across buffered recovery (ok=%v err=%v)", id, ok, err)
		}
		if HashBytes(blob) != id {
			t.Fatalf("recovered index points at wrong bytes for %s", id)
		}
	}
}
