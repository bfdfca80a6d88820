package store

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
)

// TestOutcomeTornAtEveryByte cuts a log at every byte inside its last
// commit and reopens it, for each thing this package commits: recovery
// must find everything written before the commit, and of the commit's
// own frames exactly those that lie wholly before the cut, in order.
func TestOutcomeTornAtEveryByte(t *testing.T) {
	fp := core.DefaultConfig().Fingerprint()
	var id, id2 TraceID // the trace before every segment commit, and the one that is a commit
	// segment builds a store holding one trace and then whatever commit
	// writes, and returns the segment's bytes and where the commit starts.
	segment := func(t *testing.T, commit func(s *Store)) ([]byte, int64) {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if id, _, err = s.PutTrace(testJob(11)); err != nil {
			t.Fatal(err)
		}
		start := s.Stats().DiskBytes
		commit(s)
		s.Close()
		whole, err := os.ReadFile(filepath.Join(dir, "000001.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return whole, start
	}
	// reopened opens the store around a cut segment and checks what every
	// segment case shares: the trace before the commit is still there.
	reopened := func(t *testing.T, dir string) *Store {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !s.HasTrace(id) {
			t.Fatal("the trace before the commit was lost")
		}
		return s
	}
	for _, tc := range []struct {
		name string
		file string
		// write returns the file's bytes and the offset of its last commit.
		write func(t *testing.T) ([]byte, int64)
		// survivors reopens the cut file in dir and returns how many of
		// the commit's frames recovery kept.
		survivors func(t *testing.T, dir string) int
	}{
		{
			name: "trace frame", file: "000001.seg",
			write: func(t *testing.T) ([]byte, int64) {
				return segment(t, func(s *Store) {
					var err error
					if id2, _, err = s.PutTraceBytes(encodedJob(t, 12)); err != nil {
						t.Fatal(err)
					}
				})
			},
			survivors: func(t *testing.T, dir string) int {
				s := reopened(t, dir)
				defer s.Close()
				if !s.HasTrace(id2) {
					return 0
				}
				if blob, ok, err := s.GetTraceBytes(id2); err != nil || !ok || HashBytes(blob) != id2 {
					t.Fatalf("indexed trace unreadable (ok=%v err=%v)", ok, err)
				}
				return 1
			},
		},
		{
			name: "served result frame", file: "000001.seg",
			write: func(t *testing.T) ([]byte, int64) {
				return segment(t, func(s *Store) {
					if _, err := s.PutOutcomeCtx(context.Background(), id, fp, testResult(t, testJob(11))); err != nil {
						t.Fatalf("PutOutcomeCtx: %v", err)
					}
					if st := s.Stats(); st.Results != 1 {
						t.Fatalf("stored %d results, want 1", st.Results)
					}
				})
			},
			survivors: func(t *testing.T, dir string) int {
				s := reopened(t, dir)
				defer s.Close()
				if !s.HasResult(id, fp) {
					return 0
				}
				if _, ok, err := s.GetResult(id, fp); err != nil || !ok {
					t.Fatalf("indexed result unreadable (ok=%v err=%v)", ok, err)
				}
				// A served record: head, then the body.
				if l := s.index[resultKeyOf(id, fp)]; l.kind != kindServed {
					t.Fatalf("result recovered as kind %d", l.kind)
				}
				if body, _, ok, err := s.ResultBody(id, fp); err != nil || !ok || !bytes.HasPrefix(body, []byte("{\n  \"job_id\": ")) {
					t.Fatalf("served body unreadable (ok=%v err=%v): %.40q", ok, err, body)
				}
				return 1
			},
		},
		{
			// What a store written before the served form ends in.
			name: "legacy result frame", file: "000001.seg",
			write: func(t *testing.T) ([]byte, int64) {
				return segment(t, func(s *Store) {
					doc, err := json.Marshal(testResult(t, testJob(11)))
					if err != nil {
						t.Fatal(err)
					}
					if err := s.putRecords(context.Background(), "result", record{kind: kindResult, key: resultKeyOf(id, fp), value: doc}); err != nil {
						t.Fatal(err)
					}
				})
			},
			survivors: func(t *testing.T, dir string) int {
				s := reopened(t, dir)
				defer s.Close()
				if !s.HasResult(id, fp) {
					return 0
				}
				if res, ok, err := s.GetResult(id, fp); err != nil || !ok || res.JobID != testJob(11).JobID || s.Stats().LegacyResults != 1 {
					t.Fatalf("indexed legacy result unreadable (ok=%v err=%v)", ok, err)
				}
				return 1
			},
		},
		{
			name: "event-log record", file: "events.log",
			write: func(t *testing.T) ([]byte, int64) {
				path := filepath.Join(t.TempDir(), "events.log")
				l, err := OpenAppendLog(path, false)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.Append([]byte("before")); err != nil {
					t.Fatal(err)
				}
				start := l.Size()
				if err := l.Append([]byte("the commit")); err != nil {
					t.Fatal(err)
				}
				l.Close()
				whole, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return whole, start
			},
			survivors: func(t *testing.T, dir string) int {
				path := filepath.Join(dir, "events.log")
				l, err := OpenAppendLog(path, false)
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				var got []string
				if err := l.Replay(func(v []byte) bool { got = append(got, string(v)); return true }); err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 || got[0] != "before" || len(got) != l.Records() || (len(got) == 2 && got[1] != "the commit") {
					t.Fatalf("replay = %q, Records = %d", got, l.Records())
				}
				// The torn tail is gone from the file, not just skipped.
				if info, err := os.Stat(path); err != nil || info.Size() != l.Size() {
					t.Fatalf("file holds %d bytes, log %d (%v)", info.Size(), l.Size(), err)
				}
				return len(got) - 1
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole, start := tc.write(t)
			// Where each frame of the commit ends: a cut keeps the frames
			// that end at or before it.
			var ends []int64
			good, end, err := scanFrames(bytes.NewReader(whole), int64(len(whole)), func(off int64, _ byte, key, value []byte) scanEnd {
				if off >= start {
					ends = append(ends, valueOff(off, len(key))+int64(len(value))+frameCRCLen)
				}
				return scanToLimit
			})
			if err != nil || end != scanToLimit || good != int64(len(whole)) || len(ends) == 0 {
				t.Fatalf("untouched file: %d of %d bytes valid, end %v, %d commit frames, err %v", good, len(whole), end, len(ends), err)
			}
			dir := t.TempDir()
			for cut := start; cut <= int64(len(whole)); cut++ {
				if err := os.WriteFile(filepath.Join(dir, tc.file), whole[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				want := 0
				for _, e := range ends {
					if e <= cut {
						want++
					}
				}
				if got := tc.survivors(t, dir); got != want {
					t.Fatalf("cut at %d of %d (commit frames end at %v): %d frames survived, want %d", cut, len(whole), ends, got, want)
				}
			}
		})
	}
}

// TestStreamingReadersStopAtCorruptFrame flips one byte inside a frame
// in the middle of a sealed segment, under an open store whose index
// still points past it. The sequential readers verify what they read:
// they deliver what precedes the frame in that segment and what the
// later segments hold, never the damaged frame or what follows it.
func TestStreamingReadersStopAtCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 4 << 10, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const fp = "fp-x"
	var ids []TraceID
	for i := 0; s.Stats().Segments < 3; i++ {
		id, _, err := s.PutTraceBytes(encodedJob(t, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutResult(id, fp, testResult(t, testJob(i))); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The victim: the middle trace of the first (sealed) segment.
	var inFirst []TraceID
	for _, id := range ids {
		if s.index[traceKeyOf(id)].seg == 1 {
			inFirst = append(inFirst, id)
		}
	}
	if len(inFirst) < 3 {
		t.Fatalf("first segment holds %d traces, the test needs a middle one", len(inFirst))
	}
	victim := s.index[traceKeyOf(inFirst[len(inFirst)/2])]
	seg, err := os.OpenFile(filepath.Join(dir, "000001.seg"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	at := victim.valOff + int64(victim.valLen)/2
	var b [1]byte
	if _, err := seg.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := seg.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}

	// survives: a record not in the damaged segment, or before the victim in it.
	survives := func(l loc) bool { return l.seg != 1 || l.valOff < victim.valOff }
	wantTraces, wantResults := 0, 0
	for _, id := range ids {
		if survives(s.index[traceKeyOf(id)]) {
			wantTraces++
		}
		if survives(s.index[resultKeyOf(id, fp)]) {
			wantResults++
		}
	}
	if wantTraces == 0 || wantTraces >= len(ids)-1 || wantResults == 0 || wantResults >= len(ids) {
		t.Fatalf("degenerate layout: %d/%d traces and %d/%d results survive", wantTraces, len(ids), wantResults, len(ids))
	}
	gotTraces := 0
	err = s.eachLive("t/", func(_ byte, key, blob []byte) bool {
		id := TraceID(key[len("t/"):])
		if HashBytes(blob) != id {
			t.Errorf("delivered a blob that does not hash to its ID %s", id)
		}
		if !survives(s.index[traceKeyOf(id)]) {
			t.Errorf("delivered trace %s from at or after the damaged frame", id)
		}
		gotTraces++
		return true
	})
	if err != nil || gotTraces != wantTraces {
		t.Fatalf("the trace scan delivered %d traces, want %d (err %v)", gotTraces, wantTraces, err)
	}
	gotResults := 0
	err = s.EachResultMask(fp, func(id []byte, _ category.Set) bool {
		if !survives(s.index[resultKeyOf(TraceID(id), fp)]) {
			t.Errorf("delivered result %s from after the damaged frame", id)
		}
		gotResults++
		return true
	})
	if err != nil || gotResults != wantResults {
		t.Fatalf("EachResultMask delivered %d results, want %d (err %v)", gotResults, wantResults, err)
	}
}

// TestOutcomeOneCommit pins what a result costs under Options.Sync: one
// write and no fsync. Its frame rides the next trace put's fsync, which
// covers it and the trace's frame at once. The record it hands
// back is the one a read finds.
func TestOutcomeOneCommit(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, _, err := s.PutTrace(testJob(12))
	if err != nil {
		t.Fatal(err)
	}
	fp := core.DefaultConfig().Fingerprint()
	before := s.Stats()
	rec, err := s.PutOutcomeCtx(context.Background(), id, fp, testResult(t, testJob(12)))
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if got := after.GroupSyncs - before.GroupSyncs; got != 0 {
		t.Fatalf("the result cost %d fsyncs, want 0", got)
	}
	if got, ok, err := s.GetResultBytes(id, fp); err != nil || !ok || !bytes.Equal(got, rec) {
		t.Fatalf("PutOutcomeCtx handed back a record the store does not hold (ok=%v err=%v)", ok, err)
	}
	// A re-put of a stored trace waits for trace frames only: it forces
	// no fsync of the result.
	if _, dup, err := s.PutTrace(testJob(12)); err != nil || !dup {
		t.Fatalf("re-put: dup=%v err=%v", dup, err)
	}
	if got := s.Stats().GroupSyncs - before.GroupSyncs; got != 0 {
		t.Fatalf("a duplicate trace put cost %d fsyncs, want 0", got)
	}
	if _, _, err := s.PutTrace(testJob(14)); err != nil {
		t.Fatal(err)
	}
	next := s.Stats()
	if got := next.GroupSyncs - after.GroupSyncs; got != 1 {
		t.Fatalf("the next trace put cost %d fsyncs, want 1", got)
	}
	if got := next.SyncedFrames - after.SyncedFrames; got != 2 {
		t.Fatalf("that fsync covered %d frames, want 2: the result's and the trace's", got)
	}
}

// TestOutcomeUnencodableResult: a result JSON cannot carry (NaN) fails
// the commit before anything is written.
func TestOutcomeUnencodableResult(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, _, err := s.PutTrace(testJob(13))
	if err != nil {
		t.Fatal(err)
	}
	fp := core.DefaultConfig().Fingerprint()
	res := testResult(t, testJob(13))
	res.Runtime = math.NaN()
	before := s.Stats().DiskBytes
	if _, err := s.PutOutcomeCtx(context.Background(), id, fp, res); err == nil {
		t.Fatal("an unencodable result was committed")
	}
	if st := s.Stats(); s.HasResult(id, fp) || st.Results != 0 || st.DiskBytes != before {
		t.Fatalf("want nothing committed: result=%v, %d results, %d of %d bytes", s.HasResult(id, fp), st.Results, st.DiskBytes, before)
	}
}
