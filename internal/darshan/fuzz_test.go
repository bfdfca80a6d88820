package darshan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/darshan/mosdtest"
)

// Fuzz targets for every parser that faces the network (serve ingest
// sniffs uploads into exactly these three decoders). The contract under
// test: torn or hostile input must yield an error, never a panic or an
// unbounded allocation, and anything that decodes must re-encode
// canonically to a fixed point.

// fuzzSeeds returns representative valid encodings: canonical raw
// bodies, the file encoding with its prelude (version 3) and without
// (version 2, gzip), and an empty job.
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	j := sampleJob()
	canonical, err := MarshalBinary(j)
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, canonical, fileOf(tb, j), mosdtest.V2File(tb, canonical))
	dxt := sampleJob()
	dxt.Records[0].DXTReads = []DXTEvent{{Start: 1, End: 2, Offset: 0, Length: 4096}}
	dxt.Records[0].DXTWrites = []DXTEvent{{Start: 3, End: 4, Offset: 4096, Length: 4096}}
	withDXT, err := MarshalBinary(dxt)
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, withDXT)
	empty, err := MarshalBinary(&Job{Runtime: 1, NProcs: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return append(seeds, empty)
}

// fileOf is WriteBinary's output for j.
func fileOf(tb testing.TB, j *Job) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, j); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// nonCanonicalSeeds returns decodable (or, for the trailing byte,
// rejected) variants of one canonical encoding, each differing from
// what MarshalBinary writes for the job it decodes to in exactly one of
// the ways the canonicity verdict has to notice.
func nonCanonicalSeeds(tb testing.TB) map[string][]byte {
	j := &Job{
		JobID: 9, User: "bob", Exe: "/bin/app", NProcs: 2, Runtime: 10,
		Metadata: map[string]string{"key-a": "1", "key-b": "2"},
		Records: []FileRecord{{Module: ModMPIIO, Path: "/p", Rank: 1,
			C: Counters{Opens: 1, Closes: 1, OpenStart: 1, OpenEnd: 2, CloseStart: 3, CloseEnd: 4}}},
	}
	canonical, err := MarshalBinary(j)
	if err != nil {
		tb.Fatal(err)
	}
	patch := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), canonical...))
	}
	// The first record starts where the encoding of the record-less job
	// ends; its first field is the module.
	bare := *j
	bare.Records = nil
	prefix, err := MarshalBinary(&bare)
	if err != nil {
		tb.Fatal(err)
	}
	moduleOff := len(prefix)
	return map[string][]byte{
		"module 256": patch(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[moduleOff:], 256)
			return b
		}),
		"swapped metadata keys": patch(func(b []byte) []byte {
			return bytes.Replace(b, []byte("key-a"), []byte("key-c"), 1)
		}),
		"duplicated metadata key": patch(func(b []byte) []byte {
			return bytes.Replace(b, []byte("key-b"), []byte("key-a"), 1)
		}),
		"set flag bit": patch(func(b []byte) []byte {
			b[6] |= 1 << 1 // not the gzip bit: the body stays raw
			return b
		}),
		"version-2 file": mosdtest.V2File(tb, canonical),
		"version-3 file": fileOf(tb, j),
		"trailing byte": patch(func(b []byte) []byte {
			return append(b, 0)
		}),
	}
}

// TestDecodeCanonicalVerdict pins the verdict on the seeds above and on
// the encoder's own output.
func TestDecodeCanonicalVerdict(t *testing.T) {
	for _, s := range fuzzSeeds(t)[:1] {
		var j Job
		if canonical, err := DecodeCanonical(&j, s); err != nil || !canonical {
			t.Fatalf("MarshalBinary output: canonical=%v err=%v", canonical, err)
		}
	}
	for name, s := range nonCanonicalSeeds(t) {
		var j Job
		canonical, err := DecodeCanonical(&j, s)
		if canonical {
			t.Errorf("%s: reported canonical", name)
		}
		if (err != nil) != (name == "trailing byte") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func FuzzDecodeBinary(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	for _, s := range nonCanonicalSeeds(f) {
		f.Add(s)
	}
	for _, s := range preludeSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte("MOSD"))
	f.Add([]byte("MOSD\x02\x00\x00\x00"))
	f.Add([]byte("not a log"))
	f.Fuzz(func(t *testing.T, data []byte) {
		j := new(Job)
		canonical, err := DecodeCanonical(j, data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to a canonical fixed point,
		// bit-for-bit (floats compared through their encodings, so NaN
		// timestamps — valid in corrupted traces — round-trip too).
		enc1, err := MarshalBinary(j)
		if err != nil {
			t.Fatalf("re-encoding decoded job: %v", err)
		}
		// The canonicity verdict may be conservatively false, never
		// wrongly true: ingest content-addresses a canonical upload by
		// hashing the input instead of this re-encoding.
		if canonical && !bytes.Equal(enc1, data) {
			t.Fatal("decoder reported canonical for an input that re-encodes differently")
		}
		j2, err := UnmarshalBinary(enc1)
		if err != nil {
			t.Fatalf("decoding canonical re-encoding: %v", err)
		}
		enc2, err := MarshalBinary(j2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
		// DecodeInto over a dirty reused job must agree with a fresh
		// decode: stale records, DXT lists and metadata must not leak.
		dirty := sampleJob()
		dirty.Records[0].DXTReads = []DXTEvent{{Start: 9, End: 9, Length: 9}}
		dirty.Metadata = map[string]string{"stale": "value"}
		if err := DecodeInto(dirty, data); err != nil {
			t.Fatalf("DecodeInto failed where UnmarshalBinary succeeded: %v", err)
		}
		enc3, err := MarshalBinary(dirty)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc3) {
			t.Fatal("DecodeInto into a reused job diverges from a fresh decode")
		}
	})
}

// hostileCountSeeds returns one canonical encoding patched, one field at
// a time, to claim more elements or longer strings than the limits allow
// or than the bytes that follow could hold.
func hostileCountSeeds(tb testing.TB) map[string][]byte {
	j := &Job{
		JobID: 9, User: "bob", Exe: "/bin/app", NProcs: 2, Runtime: 10,
		Records: []FileRecord{{Module: ModPOSIX, Path: "/p", Rank: 1,
			C: Counters{Opens: 1, OpenStart: 1, OpenEnd: 2}}},
	}
	canonical, err := MarshalBinary(j)
	if err != nil {
		tb.Fatal(err)
	}
	bare := *j
	bare.Records = nil
	prefix, err := MarshalBinary(&bare) // ends with the metadata and record counts
	if err != nil {
		tb.Fatal(err)
	}
	offsets := map[string]int{
		"user length":    headerLen + 8 + 4,
		"metadata count": len(prefix) - 8,
		"record count":   len(prefix) - 4,
		"path length":    len(prefix) + 4,
		"DXT read count": len(canonical) - 8,
	}
	seeds := map[string][]byte{}
	for what, off := range offsets {
		for _, n := range []uint32{1 << 10, 1 << 28, 1<<32 - 1} {
			b := append([]byte(nil), canonical...)
			binary.LittleEndian.PutUint32(b[off:], n)
			seeds[fmt.Sprintf("%s %d", what, n)] = b
		}
	}
	return seeds
}

// preludeSeeds returns version-3 files around one honest one: a prelude
// that lies in exactly one field (sealed again, so both checksums hold),
// one written under other summaryRules, the shapes version 3 does not
// have, and a prelude string claiming more bytes than any input holds.
// The job is invalid, so that the verdict's three fields are there to lie
// about. "honest" and "other rules" decode; the rest must not.
func preludeSeeds(tb testing.TB) map[string][]byte {
	j := sampleJob()
	j.Records[1].C.Stats = -1
	honest := fileOf(tb, j)
	edit := func(fn func(*mosdtest.Prelude)) []byte { return mosdtest.EditPrelude(tb, honest, fn) }
	patch := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), honest...)
		fn(b)
		return b
	}
	return map[string][]byte{
		"honest":        honest,
		"lie: user":     edit(func(p *mosdtest.Prelude) { p.User = "mallory" }),
		"lie: app":      edit(func(p *mosdtest.Prelude) { p.App = "other" }),
		"lie: heavier":  edit(func(p *mosdtest.Prelude) { p.Weight++ }),
		"lie: lighter":  edit(func(p *mosdtest.Prelude) { p.Weight-- }),
		"lie: valid":    edit(func(p *mosdtest.Prelude) { p.Kind, p.Record, p.Detail = 0, 0, "" }),
		"lie: kind":     edit(func(p *mosdtest.Prelude) { p.Kind = uint8(CorruptBadModule) }),
		"lie: record":   edit(func(p *mosdtest.Prelude) { p.Record = 0 }),
		"lie: detail":   edit(func(p *mosdtest.Prelude) { p.Detail = "nothing to see" }),
		"other rules":   edit(func(p *mosdtest.Prelude) { p.Rules++; p.Weight = 1 }),
		"raw flag word": patch(func(b []byte) { b[6] = 0 }),
		"two flag bits": patch(func(b []byte) { b[6] |= 1 << 1 }),
		"user length 2^32-1": patch(func(b []byte) {
			binary.LittleEndian.PutUint32(b[headerLen+1:], 1<<32-1)
		}),
	}
}

// TestPreludeIsCheckedAgainstBody pins the trust rule on the seeds above:
// InspectBinary believes a sealed prelude, whatever it says; DecodeInto
// and WalkBinary hold it to the body and refuse a liar with
// ErrPreludeMismatch; under other rules the prelude is not read at all.
func TestPreludeIsCheckedAgainstBody(t *testing.T) {
	seeds := preludeSeeds(t)
	truth, err := InspectBinary(seeds["honest"])
	if err != nil || truth.Invalid == nil {
		t.Fatalf("honest file: %+v, %v", truth, err)
	}
	for name, data := range seeds {
		var j Job
		canonical, derr := DecodeCanonical(&j, data)
		s, ierr := InspectBinary(data)
		w, werr := WalkBinary(data)
		if canonical {
			t.Errorf("%s: a version-3 file reported canonical", name)
		}
		switch {
		case strings.HasPrefix(name, "lie: "):
			if ierr != nil || s.equal(truth) {
				t.Errorf("%s: InspectBinary = %+v, %v; want the prelude's claim", name, s, ierr)
			}
			if !errors.Is(derr, ErrPreludeMismatch) || !errors.Is(werr, ErrPreludeMismatch) || derr.Error() != werr.Error() {
				t.Errorf("%s: DecodeInto: %v; WalkBinary: %v; want ErrPreludeMismatch from both", name, derr, werr)
			}
		case name == "honest", name == "other rules":
			if derr != nil || ierr != nil || werr != nil || !s.equal(truth) || !w.equal(truth) {
				t.Errorf("%s: DecodeInto: %v; InspectBinary: %+v, %v; WalkBinary: %+v, %v", name, derr, s, ierr, w, werr)
			}
		default:
			if derr == nil || ierr == nil || werr == nil {
				t.Errorf("%s: accepted (DecodeInto: %v; InspectBinary: %v; WalkBinary: %v)", name, derr, ierr, werr)
			}
		}
	}
}

// claimsSummary reports whether data has the header of a version-3 file
// written under this reader's summaryRules — the inputs InspectBinary
// answers from the prelude.
func claimsSummary(data []byte) bool {
	return len(data) > headerLen && binary.LittleEndian.Uint16(data[4:]) == fileFormatVersion && data[headerLen] == summaryRules
}

// rawCurrent reports whether data has the header MarshalBinary writes:
// the inputs WalkCanonical walks.
func rawCurrent(data []byte) bool {
	return len(data) >= headerLen && [4]byte(data[:4]) == Magic &&
		binary.LittleEndian.Uint16(data[4:]) == FormatVersion && binary.LittleEndian.Uint16(data[6:]) == 0
}

func sameErr(a, b error) bool { return a != nil && b != nil && a.Error() == b.Error() }

// walkAgrees holds WalkCanonical to the decoder on one input: on a raw
// current-version body the same error or, when it decodes, the same
// canonical verdict and record count; on anything else false, 0 and no
// error. j, canonical and derr are what DecodeCanonical made of data.
func walkAgrees(tb testing.TB, name string, data []byte, j *Job, canonical bool, derr error) {
	tb.Helper()
	wc, wn, werr := WalkCanonical(data)
	switch {
	case !rawCurrent(data):
		if wc || wn != 0 || werr != nil {
			tb.Fatalf("%s: WalkCanonical walked what is not a raw current-version body: %v, %d, %v", name, wc, wn, werr)
		}
	case derr != nil || werr != nil:
		if !sameErr(derr, werr) {
			tb.Fatalf("%s: WalkCanonical: %v; DecodeCanonical: %v", name, werr, derr)
		}
	case wc != canonical || wn != len(j.Records):
		tb.Fatalf("%s: WalkCanonical: canonical %v, %d records; DecodeCanonical: canonical %v, %d records",
			name, wc, wn, canonical, len(j.Records))
	}
}

// inspectAgrees holds the reads that make no job to the decoder on one
// input. WalkBinary is the decoder without the job: both fail, with the
// same error, or it returns the summary of the job the decoder returns.
// InspectBinary is that too — if it fails the decoder fails the same way,
// if the decoder succeeds it succeeds with that summary — except that it
// may accept what the decoder refuses, and then only a version-3 file
// under the current rules, whose prelude it believed. WalkCanonical is
// held to walkAgrees.
func inspectAgrees(tb testing.TB, name string, data []byte) {
	tb.Helper()
	j := new(Job)
	canonical, derr := DecodeCanonical(j, data)
	walkAgrees(tb, name, data, j, canonical, derr)
	w, werr := WalkBinary(data)
	s, ierr := InspectBinary(data)
	if derr != nil || werr != nil {
		if !sameErr(derr, werr) {
			tb.Fatalf("%s: WalkBinary: %v; UnmarshalBinary: %v", name, werr, derr)
		}
	} else if diff := DiffSummary(w, Summarize(j)); diff != "" {
		tb.Fatalf("%s: WalkBinary: %s", name, diff)
	}
	switch {
	case ierr != nil:
		if !sameErr(derr, ierr) {
			tb.Fatalf("%s: InspectBinary: %v; UnmarshalBinary: %v", name, ierr, derr)
		}
	case derr == nil:
		if diff := DiffSummary(s, Summarize(j)); diff != "" {
			tb.Fatalf("%s: InspectBinary: %s", name, diff)
		}
	case !claimsSummary(data):
		tb.Fatalf("%s: InspectBinary accepts, with no prelude to believe, what UnmarshalBinary refuses: %v", name, derr)
	}
}

// TestInspectFailsAsDecodeDoes: cut anywhere (the prelude at every
// length), patched to be non-canonical, lying about a count or lying in
// its prelude, an encoding is held to inspectAgrees — and a lying count
// buys no allocation. The raw seeds, cut at every length, and the
// non-canonical ones are what WalkCanonical walks.
func TestInspectFailsAsDecodeDoes(t *testing.T) {
	for i, s := range fuzzSeeds(t) {
		for cut := 0; cut <= len(s); cut++ {
			inspectAgrees(t, fmt.Sprintf("seed %d cut at %d of %d", i, cut, len(s)), s[:cut])
		}
	}
	for name, s := range nonCanonicalSeeds(t) {
		inspectAgrees(t, name, s)
	}
	for name, s := range preludeSeeds(t) {
		inspectAgrees(t, name, s)
	}
	for name, s := range hostileCountSeeds(t) {
		inspectAgrees(t, name, s)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := InspectBinary(s)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: refusing it allocated %d bytes", name, grew)
		}
	}
}

// FuzzInspectBinary: on any bytes at all, the funnel's reads and the
// decoder agree as inspectAgrees says, and InspectBinary allocates no
// more than a small multiple of the input it was given (a gzip body may
// inflate, a DXT list is decoded into scratch; a count field alone buys
// nothing).
func FuzzInspectBinary(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	for _, s := range nonCanonicalSeeds(f) {
		f.Add(s)
	}
	for _, s := range hostileCountSeeds(f) {
		f.Add(s)
	}
	for _, s := range preludeSeeds(f) {
		f.Add(s)
	}
	honest := preludeSeeds(f)["honest"]
	off, err := BodyOffset(honest)
	if err != nil {
		f.Fatal(err)
	}
	for cut := headerLen; cut <= off; cut++ { // the prelude, cut at every length
		f.Add(honest[:cut])
	}
	f.Add([]byte("MOSD\x02\x00\x01\x00"))
	f.Add([]byte("MOSD\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		inspectAgrees(t, "fuzz input", data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = InspectBinary(data) // the verdict was checked above
		runtime.ReadMemStats(&after)
		// Deflate expands at most 1032:1, and the inflater believes a
		// size only as far as the bytes present could reach.
		if grew, allowed := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+2048*len(data)); grew > allowed {
			t.Fatalf("inspecting %d bytes allocated %d", len(data), grew)
		}
	})
}

// FuzzWalkCanonical: on any bytes at all, WalkCanonical agrees with the
// decoder as walkAgrees says, and a walk that succeeds allocates nothing
// (a failed one allocates its error, nothing that grows with the claim).
// Plain `go test` holds every seed — DXT lists, unsorted metadata, each
// hostile count — to that.
func FuzzWalkCanonical(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	for _, s := range nonCanonicalSeeds(f) {
		f.Add(s)
	}
	for _, s := range hostileCountSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte("MOSD\x02\x00\x00\x00"))
	f.Add([]byte("MOSD\x02\x00\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		j := new(Job)
		canonical, derr := DecodeCanonical(j, data)
		walkAgrees(t, "fuzz input", data, j, canonical, derr)
		// The least of a few readings: the fuzzing process allocates on
		// other goroutines too.
		grew := ^uint64(0)
		var before, after runtime.MemStats
		for range 3 {
			runtime.ReadMemStats(&before)
			_, _, _ = WalkCanonical(data)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if derr == nil && grew != 0 || grew > 1<<10 {
			t.Fatalf("walking %d bytes (error: %v) allocated %d bytes", len(data), derr, grew)
		}
	})
}

func FuzzReadParserText(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteParserText(&buf, sampleJob()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("# darshan log version: 3.41\n")
	f.Add("POSIX\t0\t42\tPOSIX_OPENS\t3\t/scratch/x\n")
	f.Add("nprocs: -1\nrun time: 1e309\n")
	f.Fuzz(func(t *testing.T, text string) {
		j, err := ReadParserText(strings.NewReader(text))
		if err != nil || len(j.Records) == 0 {
			return
		}
		var out bytes.Buffer
		if err := WriteParserText(&out, j); err != nil {
			t.Fatalf("re-encoding parsed text: %v", err)
		}
	})
}

func FuzzReadJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleJob()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"records":[{"module":"POSIX","path":"x","rank":0,"counters":{}}]}`)
	f.Add(`{"nprocs": 1e99}`)
	f.Fuzz(func(t *testing.T, text string) {
		j, err := ReadJSON(strings.NewReader(text))
		if err != nil {
			return
		}
		if _, err := MarshalBinary(j); err != nil {
			// JSON places no length limit on strings; only the binary
			// string limit may reject here.
			if !strings.Contains(err.Error(), "string too long") {
				t.Fatalf("binary encoding of JSON-decoded job: %v", err)
			}
		}
	})
}
