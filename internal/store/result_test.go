package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
)

// The fixture under testdata/legacy-store (see its README): a segment the
// pre-served-form store code wrote.
const (
	legacyFP      = "cfg-legacy-fixture"
	legacyOtherFP = "cfg-legacy-other"
	legacyResults = 31 // under legacyFP: 30 archetype results and the custom-label one
)

func legacyID(name string) TraceID {
	sum := sha256.Sum256([]byte("legacy/" + name))
	return TraceID(hex.EncodeToString(sum[:]))
}

// openLegacy opens a private copy of the legacy fixture.
func openLegacy(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(copyDir(t, "testdata/legacy-store"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// encoderBody is what GET /v1/results/{id} sent for a stored document
// before results were stored as served: decodeResult, then json.Encoder
// with a two-space indent.
func encoderBody(t testing.TB, doc []byte) []byte {
	t.Helper()
	res, err := decodeResult(doc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLegacyStoreReads opens a store the old code wrote and holds every
// reader to it: each result is served in the bytes the old route sent,
// decodes to what the old store decoded, and is counted as legacy until
// something writes its key again. The fixture's explanation frame, the
// second of the segment, is skipped, not taken for a torn tail: the
// segment keeps every byte and every result behind it reads.
func TestLegacyStoreReads(t *testing.T) {
	fixture, err := os.Stat("testdata/legacy-store/000001.seg")
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []int64{0, -1} { // default cache, and none: every read converts
		s := openLegacy(t, Options{CacheBytes: cache})
		if st := s.Stats(); st.Results != legacyResults+1 || st.LegacyResults != legacyResults+1 || st.Traces != 1 || st.DroppedTailBytes != 0 {
			t.Fatalf("fixture stats: %+v", st)
		}
		if info, err := os.Stat(filepath.Join(s.dir, "000001.seg")); err != nil {
			t.Fatal(err)
		} else if info.Size() != fixture.Size() {
			t.Fatalf("Open left the fixture's segment at %d of %d bytes", info.Size(), fixture.Size())
		}
		for key := range s.index {
			if strings.HasPrefix(key, "e/") {
				t.Fatalf("explanation frame %q indexed", key)
			}
		}
		seen := 0
		err := s.eachLive("r/", func(kind byte, key, doc []byte) bool {
			if kind != kindResult {
				t.Fatalf("fixture frame %q has kind %d", key, kind)
			}
			parts := strings.Split(string(key), "/")
			id, fp := TraceID(parts[1]), parts[2]
			doc = bytes.Clone(doc)
			// The two facts byte identity rests on.
			want := encoderBody(t, doc)
			var indented bytes.Buffer
			if err := json.Indent(&indented, doc, "", "  "); err != nil {
				t.Fatal(err)
			}
			if indented.WriteByte('\n'); !bytes.Equal(indented.Bytes(), want) {
				t.Fatalf("%s: the old response is not json.Indent of the stored document", id)
			}
			res, _ := decodeResult(doc)
			if again, err := json.Marshal(res); err != nil || !bytes.Equal(again, doc) {
				t.Fatalf("%s: Marshal(decodeResult(stored)) differs from stored (%v)", id, err)
			}
			for lap := 0; lap < 2; lap++ { // cold, then from the cache when there is one
				body, cached, ok, err := s.ResultBody(id, fp)
				if err != nil || !ok || !bytes.Equal(body, want) {
					t.Fatalf("%s lap %d: ResultBody ok=%v err=%v\n%s\nwant\n%s", id, lap, ok, err, body, want)
				}
				if cached != (lap == 1 && cache == 0) {
					t.Fatalf("%s lap %d: cached=%v", id, lap, cached)
				}
			}
			rec, ok, err := s.GetResultBytes(id, fp)
			if err != nil || !ok || binary.LittleEndian.Uint64(rec) != uint64(category.Of(res.Labels)) || !bytes.Equal(rec[ResultHeadLen:], want) {
				t.Fatalf("%s: GetResultBytes ok=%v err=%v head %#x", id, ok, err, rec[:ResultHeadLen])
			}
			got, ok, err := s.GetResult(id, fp)
			if err != nil || !ok || !slices.Equal(got.Labels, res.Labels) || got.JobID != res.JobID || !got.Categories.Equal(res.Categories) {
				t.Fatalf("%s: GetResult ok=%v err=%v %+v", id, ok, err, got)
			}
			seen++
			return true
		})
		if err != nil || seen != legacyResults+1 {
			t.Fatalf("walked %d live results (err %v)", seen, err)
		}
		n := 0
		if err := s.EachResult(legacyFP, func(TraceID, *core.Result) bool { n++; return true }); err != nil || n != legacyResults {
			t.Fatalf("EachResult visited %d (err %v)", n, err)
		}

		// Reads convert in memory only; a write moves the key to the served
		// form for good.
		if st := s.Stats(); st.LegacyResults != legacyResults+1 {
			t.Fatalf("reads changed the legacy count: %+v", st)
		}
		id := legacyID("custom-label")
		res, _, _ := s.GetResult(id, legacyFP)
		if err := s.PutResult(id, legacyFP, res); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Results != legacyResults+1 || st.LegacyResults != legacyResults {
			t.Fatalf("after rewriting one key: %+v", st)
		}
		dir := s.dir
		s.Close()
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st := s2.Stats(); st.Results != legacyResults+1 || st.LegacyResults != legacyResults {
			t.Fatalf("after reopening: %+v", st)
		}
		s2.Close()
	}
}

// TestEachResultMask: a store mixing legacy, served, superseded and
// open records streams one (ID, set) per live result under the
// fingerprint, the open ones marked category.Open.
func TestEachResultMask(t *testing.T) {
	s := openLegacy(t, Options{})
	custom := legacyID("custom-label")
	res, _, _ := s.GetResult(custom, legacyFP)
	servedOpen, servedClosed := legacyID("served-open"), legacyID("served-closed")
	if err := s.PutResult(servedOpen, legacyFP, res); err != nil {
		t.Fatal(err)
	}
	closed := *res
	closed.Labels = res.Labels[:len(res.Labels)-1]
	if err := s.PutResult(servedClosed, legacyFP, &closed); err != nil {
		t.Fatal(err)
	}
	// Supersede a legacy record with a served one.
	over := legacyID("quiet/dxt_on")
	if err := s.PutResult(over, legacyFP, &closed); err != nil {
		t.Fatal(err)
	}
	want := map[TraceID]category.Set{}
	if err := s.EachResult(legacyFP, func(id TraceID, r *core.Result) bool {
		want[id] = category.Of(r.Labels)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) != legacyResults+2 || want[over] != category.Of(closed.Labels) {
		t.Fatalf("EachResult sees %d results", len(want))
	}
	got := map[TraceID]category.Set{}
	err := s.EachResultMask(legacyFP, func(id []byte, set category.Set) bool {
		tid := TraceID(id)
		if _, dup := got[tid]; dup {
			t.Fatalf("%s delivered twice", tid)
		}
		got[tid] = set
		if open := tid == custom || tid == servedOpen; open != (set&category.Open != 0) {
			t.Fatalf("%s: set %#x", tid, uint64(set))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("EachResultMask delivered %d results, want %d", len(got), len(want))
	}
	for id, set := range want {
		if got[id] != set {
			t.Fatalf("%s: set %#x, want %#x", id, uint64(got[id]), uint64(set))
		}
	}
}

// TestResultRecordValidation: what a peer pushes is stored only if it is
// a result record this store could have written — or the compact
// document an older node ships, which is converted.
func TestResultRecordValidation(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	const fp = "fp-x"
	res := testResult(t, testJob(3))
	rec, err := newResultRecord(res)
	if err != nil {
		t.Fatal(err)
	}
	id := HashBytes([]byte("pushed"))

	set, err := s.PutResultBytesCtx(ctx, id, fp, bytes.Clone(rec))
	if err != nil || set != category.Of(res.Labels) {
		t.Fatalf("valid record: set %#x err %v", uint64(set), err)
	}
	if got, ok, _ := s.GetResultBytes(id, fp); !ok || !bytes.Equal(got, rec) {
		t.Fatal("valid record not stored verbatim")
	}

	open := *res
	open.Labels = append(slices.Clone(res.Labels), "site_custom_label")
	openRec, _ := newResultRecord(&open)
	if set, err = s.PutResultBytesCtx(ctx, id, fp, openRec); err != nil || set != category.Of(res.Labels)|category.Open {
		t.Fatalf("open record: set %#x err %v", uint64(set), err)
	}
	if body, _, ok, _ := s.ResultBody(id, fp); !ok || !bytes.Equal(body, openRec[ResultHeadLen:]) {
		t.Fatal("open record's body, the foreign label in it, not stored verbatim")
	}

	flipped := bytes.Clone(rec)
	flipped[1] ^= 0x04
	truncated := bytes.Clone(rec[ResultHeadLen+40:])
	refused := map[string][]byte{
		"flipped mask bit":    flipped,
		"open bit set":        append(binary.LittleEndian.AppendUint64(nil, uint64(category.Of(res.Labels)|category.Open)), rec[ResultHeadLen:]...),
		"head cut from front": rec[3:],
		"head only":           rec[:ResultHeadLen],
		"half a head":         rec[:5],
		"empty":               {},
		"body cut short":      rec[:len(rec)-20],
		"body without head":   truncated,
		"not JSON":            append(bytes.Clone(rec[:ResultHeadLen]), "{\nnope"...),
		"wrong JSON type":     []byte(`{"job_id":"seventeen"}`),
	}
	before := s.Stats()
	for name, data := range refused {
		if _, err := s.PutResultBytesCtx(ctx, HashBytes([]byte(name)), fp, bytes.Clone(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if after := s.Stats(); after.Results != before.Results || after.DiskBytes != before.DiskBytes {
		t.Fatalf("refused records reached the log: %+v -> %+v", before, after)
	}

	// The compact document a pre-served-form peer pushes: converted, not
	// refused, and stored in the served form.
	compact, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	old := HashBytes([]byte("pushed by an old peer"))
	if set, err = s.PutResultBytesCtx(ctx, old, fp, compact); err != nil || set != category.Of(res.Labels) {
		t.Fatalf("legacy bytes: set %#x err %v", uint64(set), err)
	}
	if got, ok, _ := s.GetResultBytes(old, fp); !ok || !bytes.Equal(got, rec) {
		t.Fatal("legacy bytes were not converted to the served record")
	}
	if l := s.index[resultKeyOf(old, fp)]; l.kind != kindServed || s.Stats().LegacyResults != 0 {
		t.Fatalf("legacy bytes stored as kind %d (%d legacy results)", l.kind, s.Stats().LegacyResults)
	}
}

// FuzzResultRecord: whatever a result frame or a pushed record holds,
// the readers answer or report an error — they never panic — and what
// they accept is consistent: a served record whose head is the set of
// its body's labels.
func FuzzResultRecord(f *testing.F) {
	res, err := core.Categorize(testJob(5), core.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	rec, _ := newResultRecord(res)
	compact, _ := json.Marshal(res)
	f.Add(kindServed, rec)
	f.Add(kindResult, compact)
	f.Add(kindServed, rec[:5])
	f.Add(kindServed, rec[:ResultHeadLen])
	f.Add(kindServed, append(bytes.Repeat([]byte{0xff}, ResultHeadLen), rec[ResultHeadLen:]...))
	f.Add(kindTrace, rec)
	f.Add(byte(9), []byte{})
	f.Add(kindResult, []byte(`{"categories":["write_on_end","x"],"read":{"chunks":[1e999]}}`))
	f.Fuzz(func(t *testing.T, kind byte, value []byte) {
		check := func(rec []byte, set category.Set) {
			t.Helper()
			if len(rec) < ResultHeadLen {
				t.Fatalf("accepted a record of %d bytes", len(rec))
			}
			got, err := decodeResult(rec[ResultHeadLen:])
			if err != nil {
				t.Fatalf("accepted record's body does not decode: %v", err)
			}
			if want := category.Of(got.Labels); set != want {
				t.Fatalf("set %#x, body's labels give %#x", uint64(set), uint64(want))
			}
		}
		if rec, set, err := CheckResultRecord(value); err == nil {
			if binary.LittleEndian.Uint64(rec) != uint64(set) {
				t.Fatalf("checked record's head %#x, set %#x", rec[:ResultHeadLen], uint64(set))
			}
			check(rec, set)
		}
		served, err := servedRecord(kind, value)
		set, lerr := recordSet(kind, value)
		if kind != kindServed && kind != kindResult && (err == nil || lerr == nil) {
			t.Fatalf("kind %d read as a result", kind)
		}
		if kind == kindServed && len(value) < ResultHeadLen && (err == nil || lerr == nil) {
			t.Fatalf("%d-byte value read as a served record", len(value))
		}
		// A legacy frame is judged by decoding it, so both readers agree on
		// it; a served frame is trusted (the CRC vouched for it): its head
		// is its set, whatever the body says.
		if kind == kindResult && (err == nil) != (lerr == nil) {
			t.Fatalf("legacy frame: servedRecord err %v, recordSet err %v", err, lerr)
		}
		if kind == kindResult && err == nil {
			if binary.LittleEndian.Uint64(served) != uint64(set) {
				t.Fatalf("converted head %#x, labels' set %#x", served[:ResultHeadLen], uint64(set))
			}
			check(served, set)
		}
		if kind == kindServed && lerr == nil && binary.LittleEndian.Uint64(value) != uint64(set) {
			t.Fatalf("served frame's head %#x read as set %#x", value[:ResultHeadLen], uint64(set))
		}
	})
}
