package store

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/core"
)

// crashImage opens what a crash of fs at this moment leaves on disk.
func crashImage(t *testing.T, fs *faultFS) *Store {
	t.Helper()
	img, err := openStore(fs.crash("", nil), crashDir, Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { img.Close() })
	return img
}

// TestDerivedPutsCostNoFsync: under Options.Sync every put of a derived
// record — an outcome, a plain result put, a replicated result record —
// returns after its write with no fsync, so a crash
// right after it finds the trace and not the record. The next trace
// put's fsync covers the record too: a crash after that finds it, as it
// was written.
func TestDerivedPutsCostNoFsync(t *testing.T) {
	fp := core.DefaultConfig().Fingerprint()
	res := testResult(t, testJob(20))
	for _, c := range []struct {
		name string
		put  func(s *Store, id TraceID) ([]string, error)
	}{
		{"outcome", func(s *Store, id TraceID) ([]string, error) {
			_, err := s.PutOutcomeCtx(context.Background(), id, fp, res)
			return []string{resultKeyOf(id, fp)}, err
		}},
		{"result", func(s *Store, id TraceID) ([]string, error) {
			return []string{resultKeyOf(id, fp)}, s.PutResult(id, fp, res)
		}},
		{"result-bytes", func(s *Store, id TraceID) ([]string, error) {
			rec, err := newResultRecord(res)
			if err != nil {
				return nil, err
			}
			_, err = s.PutResultBytesCtx(context.Background(), id, fp, rec)
			return []string{resultKeyOf(id, fp)}, err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := newFaultFS()
			s, err := openStore(fs, crashDir, Options{Sync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			id, _, err := s.PutTrace(testJob(20))
			if err != nil {
				t.Fatal(err)
			}
			before := s.Stats().GroupSyncs
			keys, err := c.put(s, id)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Stats().GroupSyncs - before; got != 0 {
				t.Fatalf("the put cost %d fsyncs, want 0", got)
			}
			img := crashImage(t, fs)
			if !img.HasTrace(id) {
				t.Fatal("a crash lost the acknowledged trace")
			}
			for _, key := range keys {
				if _, ok, _ := readKey(img, key); ok {
					t.Fatalf("%s is on disk before any fsync covered it", key)
				}
			}

			if _, _, err := s.PutTrace(testJob(21)); err != nil {
				t.Fatal(err)
			}
			if got := s.Stats().GroupSyncs - before; got != 1 {
				t.Fatalf("the next trace put cost %d fsyncs, want 1", got)
			}
			img = crashImage(t, fs)
			for _, key := range keys {
				want, _, err := readKey(s, key)
				if err != nil {
					t.Fatal(err)
				}
				if got, ok, err := readKey(img, key); err != nil || !ok || !bytes.Equal(got, want) {
					t.Fatalf("%s after the next trace's fsync: ok=%v err=%v, want the written record", key, ok, err)
				}
			}
		})
	}
}

// TestCloseMakesDeferredFramesDurable: Close's fsync covers an outcome
// no trace put has synced yet.
func TestCloseMakesDeferredFramesDurable(t *testing.T) {
	fp := core.DefaultConfig().Fingerprint()
	fs := newFaultFS()
	s, err := openStore(fs, crashDir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.PutTrace(testJob(22))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.PutOutcomeCtx(context.Background(), id, fp, testResult(t, testJob(22)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	img := crashImage(t, fs)
	if got, ok, err := img.GetResultBytes(id, fp); err != nil || !ok || !bytes.Equal(got, rec) {
		t.Fatalf("the result after Close: ok=%v err=%v, want the committed record", ok, err)
	}
}

// TestRotationMakesDeferredFramesDurable: a result put that fills the
// segment pays for the rotation's fsync of the sealed segment, and that
// fsync covers every result written to it, its own included.
func TestRotationMakesDeferredFramesDurable(t *testing.T) {
	fs := newFaultFS()
	s, err := openStore(fs, crashDir, Options{Sync: true, MaxSegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, _, err := s.PutTrace(testJob(23))
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t, testJob(23))
	segs, before := s.Stats().Segments, s.Stats().GroupSyncs
	var fps []string
	for i := 0; s.Stats().Segments == segs; i++ {
		if i > 1000 {
			t.Fatal("no rotation after 1000 results")
		}
		fp := fmt.Sprintf("fp%04d", i)
		if err := s.PutResult(id, fp, res); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
	}
	if got := s.Stats().GroupSyncs - before; got != 1 {
		t.Fatalf("%d results and a rotation cost %d fsyncs, want the rotation's 1", len(fps), got)
	}
	img := crashImage(t, fs)
	for _, fp := range fps {
		if _, ok, err := img.GetResultBytes(id, fp); err != nil || !ok {
			t.Fatalf("result %s lost by a crash after the rotation (ok=%v err=%v)", fp, ok, err)
		}
	}
}
