package darshan_test

import (
	"bytes"
	"compress/gzip"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/gen"
)

// The funnel reads a trace through InspectFile and categorization reads
// it through ReadFile: these tests hold the first to the second.

// attachDXT gives every record active in a direction three traced
// segments across its window, the shape a DXT-enabled collection adds to
// an aggregate-only trace.
func attachDXT(j *darshan.Job) {
	split := func(start, end float64, bytes int64) []darshan.DXTEvent {
		step := (end - start) / 3
		evs := make([]darshan.DXTEvent, 3)
		for k := range evs {
			evs[k] = darshan.DXTEvent{Start: start + float64(k)*step, End: start + float64(k+1)*step,
				Offset: int64(k) * (bytes / 3), Length: bytes / 3}
		}
		return evs
	}
	for i := range j.Records {
		r := &j.Records[i]
		if r.C.HasRead() {
			r.DXTReads = split(r.C.ReadStart, r.C.ReadEnd, r.C.BytesRead)
		}
		if r.C.HasWrite() {
			r.DXTWrites = split(r.C.WriteStart, r.C.WriteEnd, r.C.BytesWritten)
		}
	}
}

// dxtDamage is damage that only a trace carrying DXT events can take.
var dxtDamage = []struct {
	kind darshan.CorruptionKind
	do   func(*darshan.Job)
}{
	{darshan.CorruptBadTimestamps, func(j *darshan.Job) {
		r := &j.Records[len(j.Records)-1]
		r.DXTWrites = append(r.DXTWrites, darshan.DXTEvent{Start: 2, End: 1})
	}},
	{darshan.CorruptAfterEnd, func(j *darshan.Job) {
		r := &j.Records[0]
		r.DXTReads = append(r.DXTReads, darshan.DXTEvent{Start: 0, End: j.Runtime + 100})
	}},
}

// gzipV1 wraps a raw-body version-1 encoding as the .mosd file a writer
// of that age left: the same header with the gzip flag, the body
// compressed.
func gzipV1(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(raw[:6])
	buf.Write([]byte{1, 0}) // flags: gzip body
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if _, err := zw.Write(raw[8:]); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInspectEqualsSummarize: for every generator archetype — intact,
// damaged in each way the validator and the generator know, several ways
// at once, with and without DXT events — written as format version 2 and
// 1 (the intact trace in every form: gzip and raw .mosd, .json, .txt; a
// damaged one as a version-2 file and a raw version-1 body),
// InspectFile(path) is Summarize(ReadFile(path)): the same user,
// application and weight, and the same verdict down to the record index
// and the text.
func TestInspectEqualsSummarize(t *testing.T) {
	dir := t.TempDir()
	// check writes one encoding of a job and holds InspectFile to
	// ReadFile on it, returning the verdict both reached.
	check := func(t *testing.T, name string, data []byte) darshan.CorruptionKind {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rerr := darshan.ReadFile(path)
		got, err := darshan.InspectFile(path)
		if rerr != nil || err != nil {
			t.Fatalf("%s: InspectFile: %v; ReadFile: %v", name, err, rerr)
		}
		if diff := darshan.DiffSummary(got, darshan.Summarize(j)); diff != "" {
			t.Fatalf("%s: InspectFile: %s", name, diff)
		}
		if verr, ok := got.Invalid.(*darshan.ValidationError); ok {
			return verr.Kind
		}
		return darshan.CorruptNone
	}
	// checkAll runs check over encodings of the job, requiring the
	// verdict want of the binary ones: with full set, format versions 2
	// and 1 each gzip and raw, and the two text formats (which cannot
	// carry every damage: NaN has no JSON form, a module outside the
	// known ones no name); otherwise the file form of version 2 and the
	// raw form of version 1.
	checkAll := func(t *testing.T, j *darshan.Job, want darshan.CorruptionKind, full bool) {
		t.Helper()
		encode := func(write func(*bytes.Buffer) error) []byte {
			var buf bytes.Buffer
			if err := write(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		binaries := map[string][]byte{
			"v2-gzip.mosd": encode(func(b *bytes.Buffer) error { return darshan.WriteBinary(b, j) }),
		}
		if full {
			raw, err := darshan.MarshalBinary(j)
			if err != nil {
				t.Fatal(err)
			}
			binaries["v2-raw.mosd"] = raw
		}
		if !j.HasDXT() {
			v1, err := darshan.MarshalV1(j)
			if err != nil {
				t.Fatal(err)
			}
			binaries["v1-raw.mosd"] = v1
			if full {
				binaries["v1-gzip.mosd"] = gzipV1(t, v1)
			}
		}
		for name, data := range binaries {
			if got := check(t, name, data); got != want {
				t.Fatalf("%s: verdict %v, want %v", name, got, want)
			}
		}
		if full {
			check(t, "trace.json", encode(func(b *bytes.Buffer) error { return darshan.WriteJSON(b, j) }))
			check(t, "trace.txt", encode(func(b *bytes.Buffer) error { return darshan.WriteParserText(b, j) }))
		}
	}

	rng := rand.New(rand.NewSource(24))
	for _, arch := range allArchetypes() {
		for _, dxt := range []bool{false, true} {
			name := arch.Name + "/aggregate"
			if dxt {
				name = arch.Name + "/dxt"
			}
			t.Run(name, func(t *testing.T) {
				build := func() *darshan.Job {
					j := buildArchetype(arch, rng)
					if dxt {
						attachDXT(j)
					} else {
						for i := range j.Records {
							j.Records[i].DXTReads, j.Records[i].DXTWrites = nil, nil
						}
					}
					return j
				}
				checkAll(t, build(), darshan.CorruptNone, true)
				for _, d := range damage {
					j := build()
					d.do(j)
					checkAll(t, j, d.kind, false)
				}
				if dxt {
					for _, d := range dxtDamage {
						j := build()
						d.do(j)
						checkAll(t, j, d.kind, false)
					}
				}
				// First fault wins, header before records: a trace
				// damaged every way at once is counted under the first
				// rule it breaks, and the last record's damage alone is
				// reported at that record.
				j := build()
				for _, d := range damage[1:] {
					d.do(j)
				}
				last := &j.Records[len(j.Records)-1]
				last.C.Seeks = -1
				checkAll(t, j, darshan.CorruptBadModule, false)
				j.Runtime = math.Inf(1)
				checkAll(t, j, darshan.CorruptBadHeader, false)
				j = build()
				j.Records[len(j.Records)-1].C.Seeks = -1
				checkAll(t, j, darshan.CorruptNegativeCount, false)
				for seen := map[int]bool{}; len(seen) < gen.CorruptKinds; {
					j := build()
					seen[gen.Corrupt(j, rng)] = true
					var buf bytes.Buffer
					if err := darshan.WriteBinary(&buf, j); err != nil {
						t.Fatal(err)
					}
					if check(t, "v2-gzip.mosd", buf.Bytes()) == darshan.CorruptNone {
						t.Fatal("trace the generator corrupted validates")
					}
				}
			})
		}
	}
}

// TestInspectFileUnreadable: a file ReadFile cannot read is unreadable to
// InspectFile too, with the same error.
func TestInspectFileUnreadable(t *testing.T) {
	dir := t.TempDir()
	var good bytes.Buffer
	if err := darshan.WriteBinary(&good, tiedJob(0, 1)); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"junk.mosd":      []byte("junk"),
		"empty.mosd":     nil,
		"cut.mosd":       good.Bytes()[:good.Len()/2],
		"crc.mosd":       append(append([]byte(nil), good.Bytes()[:good.Len()-8]...), 0, 0, 0, 0, 0, 0, 0, 0),
		"junk.json":      []byte("{"),
		"junk.txt":       []byte("nprocs: x\n"),
		"noversion.mosd": []byte("MOSD\x63\x00\x00\x00"),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, rerr := darshan.ReadFile(path)
		_, ierr := darshan.InspectFile(path)
		if rerr == nil || ierr == nil || rerr.Error() != ierr.Error() {
			t.Errorf("%s: InspectFile: %v; ReadFile: %v", name, ierr, rerr)
		}
	}
	_, rerr := darshan.ReadFile(filepath.Join(dir, "absent.mosd"))
	_, ierr := darshan.InspectFile(filepath.Join(dir, "absent.mosd"))
	if rerr == nil || ierr == nil || rerr.Error() != ierr.Error() {
		t.Errorf("absent file: InspectFile: %v; ReadFile: %v", ierr, rerr)
	}
}

// TestWeightEqualsOldSum: on every generator archetype the saturating
// weight is the plain sum it replaced — bytes read, bytes written and
// metadata requests over all records.
func TestWeightEqualsOldSum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, arch := range allArchetypes() {
		for run := 0; run < 4; run++ {
			j := buildArchetype(arch, rng)
			if got, want := j.Weight(), j.TotalBytesRead()+j.TotalBytesWritten()+j.TotalMetaOps(); got != want {
				t.Errorf("%s: weight %d, plain sum %d", arch.Name, got, want)
			}
		}
	}
}

// TestInspectFileAllocs is the allocation contract of the funnel's read
// of a trace: with warm pools, inspecting a .mosd file allocates what
// opening and sizing a file costs and nothing that grows with the trace
// — a 20-record file and a 2 000-record file allocate the same. The
// figure is the least of several runs, as in core's TestCategorizeAllocs.
func TestInspectFileAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools
	dir := t.TempDir()
	for _, records := range []int{20, 2000} {
		b := gen.NewBuilder(rand.New(rand.NewSource(1)), "alice", "/bin/app", 1, 8, 3600)
		b.Burst(gen.BurstSpec{At: 30, Duration: 60, Bytes: 1 << 30, Records: records})
		j := b.Job()
		attachDXT(j)
		path := filepath.Join(dir, "trace.mosd")
		if err := darshan.WriteFile(path, j); err != nil {
			t.Fatal(err)
		}
		allocs, size := ^uint64(0), ^uint64(0)
		var before, after runtime.MemStats
		for round := 0; round < 20; round++ {
			runtime.ReadMemStats(&before)
			s, err := darshan.InspectFile(path)
			runtime.ReadMemStats(&after)
			if err != nil || s.Invalid != nil || s.Weight != j.Weight() {
				t.Fatalf("InspectFile: %+v, %v", s, err)
			}
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			size = min(size, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%d records: %d allocs, %d bytes", len(j.Records), allocs, size)
		if allocs > 4 {
			t.Errorf("%d records: %d allocations per file, contract is 4", len(j.Records), allocs)
		}
		if size > 1<<10 {
			t.Errorf("%d records: %d bytes allocated per file, contract is 1 KB", len(j.Records), size)
		}
	}
}
