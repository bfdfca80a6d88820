package darshan_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/darshan/mosdtest"
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

// v4File is what WriteBinary writes for j; v3File and v2File are the
// file encodings of the same trace before it, with a prelude over a gzip
// body and without one.
func v4File(t testing.TB, j *darshan.Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := darshan.WriteBinary(&buf, j); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func v3File(t testing.TB, j *darshan.Job) []byte {
	t.Helper()
	raw, err := darshan.MarshalBinary(j)
	if err != nil {
		t.Fatal(err)
	}
	return mosdtest.V3File(t, v4File(t, j), raw)
}

func v2File(t testing.TB, j *darshan.Job) []byte {
	t.Helper()
	raw, err := darshan.MarshalBinary(j)
	if err != nil {
		t.Fatal(err)
	}
	return mosdtest.V2File(t, raw)
}

// TestInspectEqualsSummarize: for every generator archetype — intact,
// damaged in each way the validator and the generator know, several ways
// at once, with and without DXT events — written as a version-4, a
// version-3 and a version-2 file (the intact trace in every form: those
// three, the raw canonical encoding, .json, .txt), InspectFile(path) is
// Summarize(ReadFile(path)): the same user, application and weight, and
// the same verdict down to the record index and the text.
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
		walked, werr := darshan.WalkFile(path)
		if rerr != nil || err != nil || werr != nil {
			t.Fatalf("%s: InspectFile: %v; WalkFile: %v; ReadFile: %v", name, err, werr, rerr)
		}
		if diff := darshan.DiffSummary(got, darshan.Summarize(j)); diff != "" {
			t.Fatalf("%s: InspectFile: %s", name, diff)
		}
		if diff := darshan.DiffSummary(walked, darshan.Summarize(j)); diff != "" {
			t.Fatalf("%s: WalkFile: %s", name, diff)
		}
		if verr, ok := got.Invalid.(*darshan.ValidationError); ok {
			return verr.Kind
		}
		return darshan.CorruptNone
	}
	// checkAll runs check over encodings of the job, requiring the
	// verdict want of the binary ones: the three file encodings and, with full
	// set, the canonical encoding and the two text formats (which cannot
	// carry every damage: NaN has no JSON form, a module outside the known
	// ones no name).
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
			"v4.mosd":      v4File(t, j),
			"v3.mosd":      v3File(t, j),
			"v2-gzip.mosd": v2File(t, j),
		}
		if full {
			raw, err := darshan.MarshalBinary(j)
			if err != nil {
				t.Fatal(err)
			}
			binaries["v2-raw.mosd"] = raw
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
					if check(t, "v4.mosd", v4File(t, j)) == darshan.CorruptNone ||
						check(t, "v3.mosd", v3File(t, j)) == darshan.CorruptNone ||
						check(t, "v2-gzip.mosd", v2File(t, j)) == darshan.CorruptNone {
						t.Fatal("trace the generator corrupted validates")
					}
				}
			})
		}
	}
}

// TestInspectFileUnreadable: a file ReadFile cannot read is unreadable to
// InspectFile too, with the same error. The damaged tails are flipped,
// not zeroed: a compact body may end in zero bytes already.
func TestInspectFileUnreadable(t *testing.T) {
	dir := t.TempDir()
	flipTail := func(b []byte) []byte {
		out := append([]byte(nil), b...)
		for i := len(out) - 8; i < len(out); i++ {
			out[i] ^= 0xFF
		}
		return out
	}
	withFlags := func(b []byte, flags byte) []byte {
		out := append([]byte(nil), b...)
		out[6] = flags
		return out
	}
	good, v3, old := v4File(t, tiedJob(0, 1)), v3File(t, tiedJob(0, 1)), v2File(t, tiedJob(0, 1))
	version1 := append([]byte(nil), old...)
	version1[4] = 1
	for name, data := range map[string][]byte{
		"junk.mosd":      []byte("junk"),
		"empty.mosd":     nil,
		"cut.mosd":       good[:len(good)/2],
		"crc.mosd":       flipTail(good),
		"gzip-flag.mosd": withFlags(good, 1),
		"flag-2.mosd":    withFlags(good, 2),
		"cut-v3.mosd":    v3[:len(v3)/2],
		"crc-v3.mosd":    flipTail(v3),
		"raw-v3.mosd":    withFlags(v3, 0),
		"cut-v2.mosd":    old[:len(old)/2],
		"crc-v2.mosd":    flipTail(old),
		"version1.mosd":  version1,
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
		if name == "version1.mosd" && !errors.Is(ierr, darshan.ErrBadVersion) {
			t.Errorf("%s: %v, want ErrBadVersion: no reader spans version 1", name, ierr)
		}
	}
	_, rerr := darshan.ReadFile(filepath.Join(dir, "absent.mosd"))
	_, ierr := darshan.InspectFile(filepath.Join(dir, "absent.mosd"))
	if rerr == nil || ierr == nil || rerr.Error() != ierr.Error() {
		t.Errorf("absent file: InspectFile: %v; ReadFile: %v", ierr, rerr)
	}
}

// TestDamagedFileUnreadable: an honest version-4 or version-3 file cut
// at any length, or with any one byte changed, is unreadable — to
// InspectFile, which would have believed its prelude, exactly as to
// ReadFile, and with the same error. It is the two checksums that make
// this hold: without the body's, InspectFile accepts every file damaged
// past the prelude.
func TestDamagedFileUnreadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.mosd")
	for version, good := range map[int][]byte{4: v4File(t, tiedJob(0, 1)), 3: v3File(t, tiedJob(0, 1))} {
		check := func(what string, data []byte) {
			t.Helper()
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, rerr := darshan.ReadFile(path)
			_, ierr := darshan.InspectFile(path)
			if rerr == nil || ierr == nil || rerr.Error() != ierr.Error() {
				t.Fatalf("version %d, %s of %d: InspectFile: %v; ReadFile: %v", version, what, len(good), ierr, rerr)
			}
		}
		for off := range good {
			check(fmt.Sprintf("cut at %d", off), good[:off])
			for _, mask := range []byte{0x01, 0xFF} {
				flipped := append([]byte(nil), good...)
				flipped[off] ^= mask
				check(fmt.Sprintf("byte %d ^ %#x", off, mask), flipped)
			}
		}
	}
}

// TestSummaryRulesPinned pins what Validate, Job.Weight and Job.AppName
// answer on jobs at their boundaries: one per CorruptionKind, a record
// ending at the run's end plus the clock slack and just past it, two
// records that saturate the weight, an executable with arguments. A
// change to this table is a change to what a Summary means, and every
// version-3 file on disk carries the old answer in its prelude — bump
// summaryRules in the same change, so that those files are walked again
// instead of believed.
func TestSummaryRulesPinned(t *testing.T) {
	if darshan.SummaryRules != 1 {
		t.Fatalf("summaryRules = %d: pin the table below to the new rules, then this number", darshan.SummaryRules)
	}
	base := func() *darshan.Job {
		return &darshan.Job{
			JobID: 1, User: "alice", Exe: "/apps/bin/lammps -in run.in", NProcs: 8, Start: 100, End: 200, Runtime: 100,
			Records: []darshan.FileRecord{
				{Module: darshan.ModPOSIX, Path: "/in", Rank: 0, C: darshan.Counters{
					Opens: 1, Closes: 1, Seeks: 2, Stats: 3, Reads: 10, BytesRead: 1000,
					OpenStart: 1, OpenEnd: 2, ReadStart: 2, ReadEnd: 50, CloseStart: 50, CloseEnd: 51}},
				{Module: darshan.ModMPIIO, Path: "/out", Rank: 1, C: darshan.Counters{
					Opens: 1, Closes: 1, Writes: 5, BytesWritten: 4000,
					OpenStart: 60, OpenEnd: 61, WriteStart: 61, WriteEnd: 90, CloseStart: 90, CloseEnd: 91}},
			},
		}
	}
	const baseWeight = 1000 + 4000 + (1 + 1 + 2 + 3) + (1 + 1)
	type row struct {
		name   string
		do     func(*darshan.Job)
		kind   darshan.CorruptionKind
		record int
		weight int64
	}
	rows := []row{
		{"intact", func(*darshan.Job) {}, darshan.CorruptNone, 0, baseWeight},
		{"ends at runtime + slack", func(j *darshan.Job) {
			j.Records[1].C.WriteEnd, j.Records[1].C.CloseStart, j.Records[1].C.CloseEnd = 101, 101, 101
		}, darshan.CorruptNone, 0, baseWeight},
		{"ends past runtime + slack", func(j *darshan.Job) {
			j.Records[1].C.WriteEnd, j.Records[1].C.CloseStart, j.Records[1].C.CloseEnd = 101.000001, 101.000001, 101.000001
		}, darshan.CorruptAfterEnd, 1, baseWeight},
		{"saturated weight", func(j *darshan.Job) {
			j.Records[0].C.BytesRead, j.Records[1].C.BytesWritten = math.MaxInt64, math.MaxInt64
		}, darshan.CorruptNone, 0, math.MaxInt64},
		{"negative weight", func(j *darshan.Job) { j.Records[0].C.BytesRead = -6000 }, darshan.CorruptNegativeCount, 0, baseWeight - 7000},
	}
	for _, d := range damage {
		// damage edits record 0; only two kinds touch a weighed counter.
		w := int64(baseWeight)
		switch d.kind {
		case darshan.CorruptEarlyDealloc:
			w++ // BytesWritten 0 → 1
		case darshan.CorruptNegativeCount:
			w -= 4 // Stats 3 → -1
		}
		record := 0
		if d.kind == darshan.CorruptBadHeader {
			record = -1
		}
		rows = append(rows, row{d.kind.String(), d.do, d.kind, record, w})
	}
	seen := map[darshan.CorruptionKind]bool{}
	for _, r := range rows {
		j := base()
		r.do(j)
		s := darshan.Summarize(j)
		kind, record := darshan.CorruptNone, 0
		if v, ok := s.Invalid.(*darshan.ValidationError); ok {
			kind, record = v.Kind, v.Record
		}
		seen[kind] = true
		if s.User != "alice" || s.App != "lammps" || kind != r.kind || record != r.record || s.Weight != r.weight {
			t.Errorf("%s: %s/%s, %v at record %d, weight %d; pinned alice/lammps, %v at record %d, weight %d",
				r.name, s.User, s.App, kind, record, s.Weight, r.kind, r.record, r.weight)
		}
	}
	for k := darshan.CorruptNone; k <= darshan.CorruptBadModule; k++ {
		if !seen[k] {
			t.Errorf("no row earns %v", k)
		}
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
// — a 20-record file and a 2 000-record file allocate the same, whether
// the summary comes from a version-4 or version-3 prelude or from
// walking a version-2 body. The figure is the least of several runs, as in core's
// TestCategorizeAllocs.
func TestInspectFileAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools
	path := filepath.Join(t.TempDir(), "trace.mosd")
	for _, records := range []int{20, 2000} {
		b := gen.NewBuilder(rand.New(rand.NewSource(1)), "alice", "/bin/app", 1, 8, 3600)
		b.Burst(gen.BurstSpec{At: 30, Duration: 60, Bytes: 1 << 30, Records: records})
		j := b.Job()
		attachDXT(j)
		for version, data := range map[int][]byte{4: v4File(t, j), 3: v3File(t, j), 2: v2File(t, j)} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
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
			t.Logf("version %d, %d records: %d allocs, %d bytes", version, len(j.Records), allocs, size)
			if allocs > 4 {
				t.Errorf("version %d, %d records: %d allocations per file, contract is 4", version, len(j.Records), allocs)
			}
			if size > 1<<10 {
				t.Errorf("version %d, %d records: %d bytes allocated per file, contract is 1 KB", version, len(j.Records), size)
			}
		}
	}
}
