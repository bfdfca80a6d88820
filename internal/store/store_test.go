package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

// testJob builds a small valid trace whose identity varies with seed.
func testJob(seed int) *darshan.Job {
	j := &darshan.Job{
		JobID:   uint64(1000 + seed),
		UID:     42,
		User:    fmt.Sprintf("user%d", seed%3),
		Exe:     fmt.Sprintf("/apps/sim%d", seed),
		NProcs:  8,
		Start:   1_600_000_000,
		End:     1_600_000_000 + 3600,
		Runtime: 3600,
	}
	j.Records = []darshan.FileRecord{{
		Module: darshan.ModPOSIX,
		Path:   "/scratch/out.dat",
		Rank:   -1,
		C: darshan.Counters{
			Opens: 4, Closes: 4, Writes: 100, BytesWritten: 200 << 20,
			OpenStart: 1, OpenEnd: 2, WriteStart: 10, WriteEnd: 3000,
			CloseStart: 3500, CloseEnd: 3550,
		},
	}}
	return j
}

func testResult(t *testing.T, j *darshan.Job) *core.Result {
	t.Helper()
	res, err := core.Categorize(j, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// storedJob reads the trace stored under id and decodes it.
func storedJob(t *testing.T, s *Store, id TraceID) *darshan.Job {
	t.Helper()
	data, ok, err := s.GetTraceBytes(id)
	if err != nil || !ok {
		t.Fatalf("trace %s: ok=%v err=%v", id, ok, err)
	}
	j, err := darshan.UnmarshalBinary(data)
	if err != nil {
		t.Fatalf("trace %s: %v", id, err)
	}
	return j
}

func TestTraceKeyDeterministic(t *testing.T) {
	a, dataA, err := TraceKey(testJob(1))
	if err != nil {
		t.Fatal(err)
	}
	b, dataB, err := TraceKey(testJob(1))
	if err != nil {
		t.Fatal(err)
	}
	if a != b || string(dataA) != string(dataB) {
		t.Fatal("identical jobs must share one content address")
	}
	if !a.Valid() {
		t.Fatalf("TraceID %q not a sha256 hex digest", a)
	}
	c, _, err := TraceKey(testJob(2))
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different jobs must not collide")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	j := testJob(1)
	id, existed, err := s.PutTrace(j)
	if err != nil || existed {
		t.Fatalf("PutTrace = %v, existed=%v", err, existed)
	}
	if _, existed, err = s.PutTrace(j); err != nil || !existed {
		t.Fatalf("second PutTrace: err=%v existed=%v, want idempotent hit", err, existed)
	}
	if got := storedJob(t, s, id); !reflect.DeepEqual(j, got) {
		t.Fatal("trace round trip mismatch")
	}

	fp := core.DefaultConfig().Fingerprint()
	res := testResult(t, j)
	if err := s.PutResult(id, fp, res); err != nil {
		t.Fatal(err)
	}
	back, ok, err := s.GetResult(id, fp)
	if err != nil || !ok {
		t.Fatalf("GetResult: ok=%v err=%v", ok, err)
	}
	if !back.Categories.Equal(res.Categories) {
		t.Fatalf("categories mismatch: %v vs %v", back.Categories, res.Categories)
	}
	if back.Write.Temporal != res.Write.Temporal {
		t.Fatalf("temporal kind not rehydrated: %v vs %v", back.Write.Temporal, res.Write.Temporal)
	}
	// A different fingerprint is a different identity: miss.
	if _, ok, err := s.GetResult(id, "cfg-ffffffffffffffff"); err != nil || ok {
		t.Fatalf("foreign fingerprint must miss (ok=%v err=%v)", ok, err)
	}
	st := s.Stats()
	if st.Traces != 1 || st.Results != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp := core.DefaultConfig().Fingerprint()
	var ids []TraceID
	for i := 0; i < 10; i++ {
		j := testJob(i)
		id, _, err := s.PutTrace(j)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutResult(id, fp, testResult(t, j)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Traces != 10 || st.Results != 10 || st.DroppedTailBytes != 0 {
		t.Fatalf("after reopen: %+v", st)
	}
	for _, id := range ids {
		if _, ok, err := s2.GetResult(id, fp); err != nil || !ok {
			t.Fatalf("result %s lost across reopen (ok=%v err=%v)", id, ok, err)
		}
	}
	// Appends must keep working after recovery.
	j := testJob(99)
	id, _, err := s2.PutTrace(j)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.HasTrace(id) {
		t.Fatal("post-recovery append not indexed")
	}
}

// TestStoreCrashRecoveryDropsOnlyTornTail is the crash test: append
// records, then simulate a mid-append kill by truncating the active
// segment inside the last frame. Reopen must recover every earlier
// record and drop exactly the torn tail.
func TestStoreCrashRecoveryDropsOnlyTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp := core.DefaultConfig().Fingerprint()
	var ids []TraceID
	for i := 0; i < 5; i++ {
		j := testJob(i)
		id, _, err := s.PutTrace(j)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutResult(id, fp, testResult(t, j)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Remember where the log stood before the doomed append.
	segPath := filepath.Join(dir, "000001.seg")
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	goodSize := info.Size()
	// One more record, then "crash" mid-append: keep only part of it.
	lastJob := testJob(5)
	lastID, _, err := s.PutTrace(lastJob)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.Truncate(segPath, goodSize+7); err != nil { // 7 bytes: torn inside the frame
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.DroppedTailBytes != 7 {
		t.Fatalf("dropped %d tail bytes, want 7", st.DroppedTailBytes)
	}
	if st.Traces != 5 || st.Results != 5 {
		t.Fatalf("recovered %d traces / %d results, want 5/5", st.Traces, st.Results)
	}
	if s2.HasTrace(lastID) {
		t.Fatal("torn record must not be indexed")
	}
	for _, id := range ids {
		res, ok, err := s2.GetResult(id, fp)
		if err != nil || !ok || len(res.Labels) == 0 {
			t.Fatalf("pre-crash record %s damaged (ok=%v err=%v)", id, ok, err)
		}
	}
	// The torn tail was truncated away: re-appending the same trace
	// must succeed and be readable.
	id, existed, err := s2.PutTrace(lastJob)
	if err != nil || existed || id != lastID {
		t.Fatalf("re-append after recovery: id=%s existed=%v err=%v", id, existed, err)
	}
	if got := storedJob(t, s2, lastID); !reflect.DeepEqual(lastJob, got) {
		t.Fatal("re-appended trace reads back different")
	}
}

func TestStoreCrashRecoveryCorruptedCRC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id1, _, err := s.PutTrace(testJob(1))
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "000001.seg")
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	firstEnd := info.Size()
	id2, _, err := s.PutTrace(testJob(2))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Flip a byte inside the second frame's value: length intact, CRC wrong.
	f, err := os.OpenFile(segPath, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, firstEnd+20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.HasTrace(id1) {
		t.Fatal("first record must survive")
	}
	if s2.HasTrace(id2) {
		t.Fatal("CRC-corrupted record must be dropped")
	}
	if s2.Stats().DroppedTailBytes == 0 {
		t.Fatal("corruption not accounted")
	}
}

func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	var put []TraceID
	for i := 0; i < 8; i++ {
		id, _, err := s.PutTrace(testJob(i))
		if err != nil {
			t.Fatal(err)
		}
		put = append(put, id)
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Traces; got != 8 {
		t.Fatalf("recovered %d traces across segments, want 8", got)
	}
	// In log order: the order the traces were put, across segments.
	var visited []TraceID
	s2.EachTraceID(func(id TraceID) bool {
		if _, ok, err := s2.GetTraceBytes(id); err != nil || !ok {
			t.Fatalf("trace %s unreadable after rotation (ok=%v err=%v)", id, ok, err)
		}
		visited = append(visited, id)
		return true
	})
	if !slices.Equal(visited, put) {
		t.Fatalf("EachTraceID visited %v, want the log order %v", visited, put)
	}
}

func TestStoreEachResultFiltersFingerprint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fpA := core.DefaultConfig().Fingerprint()
	cfgB := core.DefaultConfig()
	cfgB.ChunkCount = 8
	fpB := cfgB.Fingerprint()
	for i := 0; i < 4; i++ {
		j := testJob(i)
		id, _, err := s.PutTrace(j)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutResult(id, fpA, testResult(t, j)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := s.PutResult(id, fpB, testResult(t, j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	count := func(fp string) int {
		n := 0
		if err := s.EachResult(fp, func(TraceID, *core.Result) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if a, b := count(fpA), count(fpB); a != 4 || b != 2 {
		t.Fatalf("EachResult: fpA=%d fpB=%d, want 4/2", a, b)
	}
}

func TestLRUBound(t *testing.T) {
	c := newLRU(100)
	for i := 0; i < 20; i++ {
		c.put(fmt.Sprintf("k%d", i), make([]byte, 10))
	}
	items, bytes := c.stats()
	if bytes > 100 {
		t.Fatalf("cache %d bytes exceeds bound", bytes)
	}
	if items != 10 {
		t.Fatalf("cache holds %d items, want 10", items)
	}
	if _, ok := c.get("k0"); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	if _, ok := c.get("k19"); !ok {
		t.Fatal("newest entry should remain")
	}
	// Oversized values are not cached at all.
	c.put("huge", make([]byte, 1000))
	if _, ok := c.get("huge"); ok {
		t.Fatal("value larger than the cache must not be cached")
	}
}

// TestLRUOversizedDropsStale: a value too large to cache, put or written
// under a cached key, takes the key's old value out of the cache with it
// — the next read goes to the log and finds the new bytes, never the old.
func TestLRUOversizedDropsStale(t *testing.T) {
	for _, admit := range []bool{true, false} {
		c := newLRU(100)
		c.put("k", []byte("old"))
		c.put("other", []byte("kept"))
		c.set("k", make([]byte, 101), admit)
		if v, ok := c.get("k"); ok {
			t.Fatalf("admit=%v: an oversized value left %q cached under its key", admit, v)
		}
		if items, size := c.stats(); items != 1 || size != int64(len("kept")) {
			t.Fatalf("admit=%v: %d items of %d bytes left, want the other entry alone", admit, items, size)
		}
	}
}

// TestLRURefreshAdmitsNothing: a write refreshes a cached key in place
// and leaves an uncached one uncached.
func TestLRURefreshAdmitsNothing(t *testing.T) {
	c := newLRU(100)
	c.refresh("cold", []byte("v"))
	if _, ok := c.get("cold"); ok {
		t.Fatal("refresh admitted an uncached key")
	}
	c.put("hot", []byte("v1"))
	c.refresh("hot", []byte("v2-longer"))
	if v, ok := c.get("hot"); !ok || string(v) != "v2-longer" {
		t.Fatalf("refreshed key reads %q, %v", v, ok)
	}
	if _, size := c.stats(); size != int64(len("v2-longer")) {
		t.Fatalf("cache accounts %d bytes after a refresh", size)
	}
}

// TestCacheFillsOnRead: a write admits nothing — a result, a trace
// blob — the first read of a record is cold and the
// second hot, a write to a cached key serves its new bytes from the
// cache, and a trace blob is never cached at all.
func TestCacheFillsOnRead(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fp := core.DefaultConfig().Fingerprint()
	j := testJob(40)
	id, _, err := s.PutTrace(j)
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t, j)
	if _, err := s.PutOutcomeCtx(context.Background(), id, fp, res); err != nil {
		t.Fatal(err)
	}
	if items, size := s.cache.stats(); items != 0 || size != 0 {
		t.Fatalf("writes left %d items, %d bytes in the read cache", items, size)
	}
	for lap, want := range []bool{false, true} {
		if _, cached, ok, err := s.ResultBody(id, fp); err != nil || !ok || cached != want {
			t.Fatalf("read %d: cached=%v ok=%v err=%v, want cached=%v", lap, cached, ok, err, want)
		}
	}
	if blob, ok, err := s.GetTraceBytes(id); err != nil || !ok || HashBytes(blob) != id {
		t.Fatalf("trace: ok=%v err=%v", ok, err)
	}
	if _, ok := s.cache.get(traceKeyOf(id)); ok {
		t.Fatal("a read trace blob was cached")
	}

	// A write to the cached key: the next read is a hit on the new bytes.
	other := *res
	other.Labels = append(slices.Clone(res.Labels), "site_custom_label")
	if err := s.PutResult(id, fp, &other); err != nil {
		t.Fatal(err)
	}
	want, err := newResultRecord(&other)
	if err != nil {
		t.Fatal(err)
	}
	body, cached, ok, err := s.ResultBody(id, fp)
	if err != nil || !ok || !cached || !bytes.Equal(body, want[ResultHeadLen:]) {
		t.Fatalf("after the write: cached=%v ok=%v err=%v, new bytes served: %v", cached, ok, err, bytes.Equal(body, want[ResultHeadLen:]))
	}
}

func TestStoreBoundedMemory(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CacheBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fp := core.DefaultConfig().Fingerprint()
	for i := 0; i < 30; i++ {
		j := testJob(i)
		id, _, err := s.PutTrace(j)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutResult(id, fp, testResult(t, j)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.CacheBytes > 2048 {
		t.Fatalf("cache grew to %d bytes beyond the 2048 bound", st.CacheBytes)
	}
	// Values evicted from cache must still be readable from disk.
	n := 0
	if err := s.EachResult(fp, func(_ TraceID, res *core.Result) bool {
		if len(res.Labels) == 0 {
			t.Fatal("decoded result lost its labels")
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("EachResult visited %d, want 30", n)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CacheBytes: 4096, MaxSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fp := core.DefaultConfig().Fingerprint()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j := testJob(g*20 + i)
				id, _, err := s.PutTrace(j)
				if err != nil {
					t.Error(err)
					return
				}
				if err := s.PutResult(id, fp, testResult(t, j)); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.GetResult(id, fp); err != nil {
					t.Error(err)
					return
				}
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Traces != 160 || st.Results != 160 {
		t.Fatalf("stats after concurrent load: %+v", st)
	}
}
