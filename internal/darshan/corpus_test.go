package darshan_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/gen"
)

// Corpus directories are read by the engine (Scan → Decode → Funnel);
// these tests hold the two things a directory reader owes the funnel.

// tiedJob is a valid run of application app. Every job it returns has
// the same weight, so which run of a group the funnel keeps is decided
// by arrival order alone.
func tiedJob(app int, id uint64) *darshan.Job {
	b := gen.NewBuilder(rand.New(rand.NewSource(1)), "alice", fmt.Sprintf("/bin/app%d", app), id, 8, 3600)
	b.Burst(gen.BurstSpec{At: 30, Duration: 60, Bytes: 1 << 30, Records: 4})
	return b.Job()
}

// A file that does not decode is funnel data — one unreadable trace —
// not a failed run.
func TestStreamCorpusReportsDecodeErrors(t *testing.T) {
	dir := t.TempDir()
	if err := darshan.WriteFile(filepath.Join(dir, "good.mosd"), tiedJob(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.mosd"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(context.Background(), engine.Dir(dir), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Funnel; f.Total != 2 || f.Valid != 1 || f.Corrupted != 1 || f.ByReason["unreadable"] != 1 {
		t.Fatalf("funnel %+v, want 2 traces: 1 valid, 1 unreadable", f)
	}
	if len(res.Apps) != 1 || res.Apps[0].JobID != 1 {
		t.Fatalf("apps = %+v, want the one good trace", res.Apps)
	}
}

// Traces reach the funnel in scan (lexical) order however many workers
// decode them, and none is lost: of equally heavy runs the funnel keeps
// the first, so each group must end up holding its lexically first file.
func TestStreamCorpusParallelOrderAndCompleteness(t *testing.T) {
	dir := t.TempDir()
	const files, apps = 40, 4
	for i := 0; i < files; i++ {
		// Written in the reverse of the order they sort in.
		name := filepath.Join(dir, fmt.Sprintf("t%02d.mosd", files-1-i))
		if err := darshan.WriteFile(name, tiedJob(i%apps, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// A broken file takes its place in the order too.
	if err := os.WriteFile(filepath.Join(dir, "t20_bad.mosd"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(context.Background(), engine.Dir(dir), engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Funnel; f.Total != files+1 || f.Valid != files || f.ByReason["unreadable"] != 1 {
		t.Fatalf("funnel %+v, want %d traces, 1 unreadable", f, files+1)
	}
	if len(res.Apps) != apps {
		t.Fatalf("%d apps, want %d", len(res.Apps), apps)
	}
	for _, a := range res.Apps {
		// t00..t03 hold jobs 39..36, the first file of each group.
		if a.Runs != files/apps || a.JobID < files-apps {
			t.Errorf("%s: %d runs, kept job %d; want %d runs and one of the first %d files", a.App, a.Runs, a.JobID, files/apps, apps)
		}
	}
}

// stdlibReadFile decodes a .mosd file the way the reader did before it
// had its own inflater: compress/gzip over the body, then the raw-body
// decoder.
func stdlibReadFile(path string) (*darshan.Job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	off, err := darshan.BodyOffset(data)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(data[off:]))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	raw := append(append([]byte(nil), darshan.Magic[:]...), 2, 0, 0, 0) // the canonical header: no prelude, no flag
	return darshan.UnmarshalBinary(append(raw, body...))
}

// damage is one way to earn each verdict Validate can give (a slice, not
// a map: the archetypes draw from one rng, so order is part of the seed).
var damage = []struct {
	kind darshan.CorruptionKind
	do   func(*darshan.Job)
}{
	{darshan.CorruptBadHeader, func(j *darshan.Job) { j.NProcs = 0 }},
	{darshan.CorruptBadTimestamps, func(j *darshan.Job) { j.Records[0].C.OpenStart = math.NaN() }},
	{darshan.CorruptEarlyDealloc, func(j *darshan.Job) {
		c := &j.Records[0].C
		c.Writes, c.BytesWritten, c.WriteStart, c.WriteEnd = 1, 1, 1, 2
		c.Closes, c.CloseStart, c.CloseEnd = 1, 0, 1
	}},
	{darshan.CorruptAfterEnd, func(j *darshan.Job) {
		c := &j.Records[0].C
		c.Opens, c.OpenStart, c.OpenEnd = 1, 0, j.Runtime+100
	}},
	{darshan.CorruptNegativeCount, func(j *darshan.Job) { j.Records[0].C.Stats = -1 }},
	{darshan.CorruptInverted, func(j *darshan.Job) {
		c := &j.Records[0].C
		c.Opens, c.OpenStart, c.OpenEnd = 1, 2, 1
	}},
	{darshan.CorruptBadModule, func(j *darshan.Job) { j.Records[0].Module = 77 }},
}

// allArchetypes is every application family the generator knows,
// including the two DXT checkpointers outside the default mixture.
func allArchetypes() []gen.Archetype {
	return append(gen.DefaultArchetypes(), gen.DXTCheckpointerArchetype(false), gen.DXTCheckpointerArchetype(true))
}

// buildArchetype draws one run of arch from rng.
func buildArchetype(arch gen.Archetype, rng *rand.Rand) *darshan.Job {
	p := arch.Params(rng)
	b := gen.NewBuilder(rng, "u1", arch.Exe, 1, p.Ranks, p.RuntimeBase)
	arch.Build(b, p)
	return b.Job()
}

// TestReadFileMatchesStdlibDecode: for every generator archetype, intact
// and damaged in each way the generator and the validator know, ReadFile
// returns the job a compress/gzip decode returns, and the two get the
// same verdict from Validate.
func TestReadFileMatchesStdlibDecode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.mosd")
	// check holds ReadFile to the reference on one job and returns the
	// verdict Validate gives both.
	check := func(t *testing.T, j *darshan.Job) darshan.CorruptionKind {
		t.Helper()
		if err := darshan.WriteFile(path, j); err != nil {
			t.Fatal(err)
		}
		got, err := darshan.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stdlibReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gotEnc, _ := darshan.MarshalBinary(got)
		refEnc, _ := darshan.MarshalBinary(ref)
		if !bytes.Equal(gotEnc, refEnc) {
			t.Fatal("ReadFile and the compress/gzip decode return different jobs")
		}
		kind := func(j *darshan.Job) darshan.CorruptionKind {
			if verr, ok := darshan.Validate(j).(*darshan.ValidationError); ok {
				return verr.Kind
			}
			return darshan.CorruptNone
		}
		if kind(got) != kind(ref) {
			t.Fatalf("Validate: %v from ReadFile, %v from the reference", kind(got), kind(ref))
		}
		return kind(got)
	}

	rng := rand.New(rand.NewSource(14))
	for _, arch := range allArchetypes() {
		t.Run(arch.Name, func(t *testing.T) {
			build := func() *darshan.Job { return buildArchetype(arch, rng) }
			if k := check(t, build()); k != darshan.CorruptNone {
				t.Fatalf("intact trace is %v", k)
			}
			for _, d := range damage {
				j := build()
				d.do(j)
				if k := check(t, j); k != d.kind {
					t.Fatalf("damaged trace is %v, want %v", k, d.kind)
				}
			}
			for seen := map[int]bool{}; len(seen) < gen.CorruptKinds; {
				j := build()
				seen[gen.Corrupt(j, rng)] = true
				if k := check(t, j); k == darshan.CorruptNone {
					t.Fatal("trace the generator corrupted validates")
				}
			}
		})
	}
}
