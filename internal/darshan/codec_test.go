package darshan

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	j := sampleJob()
	data, err := MarshalBinary(j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", j, got)
	}
}

func TestBinaryRoundTripEmptyJob(t *testing.T) {
	j := &Job{Runtime: 1, NProcs: 1}
	data, err := MarshalBinary(j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.JobID != 0 || len(got.Records) != 0 || got.Metadata != nil {
		t.Fatalf("empty job round trip: %+v", got)
	}
}

func TestBinaryPreservesSpecialFloats(t *testing.T) {
	// Corrupted traces can carry NaN timestamps; the codec must preserve
	// them bit-for-bit so validation sees them.
	j := sampleJob()
	j.Records[0].C.ReadStart = math.NaN()
	j.Records[0].C.ReadEnd = math.Inf(1)
	data, err := MarshalBinary(j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.Records[0].C.ReadStart) || !math.IsInf(got.Records[0].C.ReadEnd, 1) {
		t.Fatal("special floats not preserved")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalBinary([]byte("not a darshan log at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := UnmarshalBinary(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestBinaryRejectsBadMagicAndVersion(t *testing.T) {
	j := sampleJob()
	data, _ := MarshalBinary(j)
	bad := append([]byte{}, data...)
	bad[0] = 'X'
	if _, err := UnmarshalBinary(bad); err != ErrBadMagic {
		t.Fatalf("bad magic error = %v", err)
	}
	badVer := append([]byte{}, data...)
	badVer[4] = 99
	if _, err := UnmarshalBinary(badVer); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestBinaryRejectsTruncation(t *testing.T) {
	data, _ := MarshalBinary(sampleJob())
	for _, cut := range []int{5, 9, len(data) / 2, len(data) - 1} {
		if cut >= len(data) {
			continue
		}
		if _, err := UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func randomJob(rng *rand.Rand) *Job {
	j := &Job{
		JobID:   rng.Uint64(),
		UID:     rng.Uint32(),
		User:    randString(rng, 8),
		Exe:     "/bin/" + randString(rng, 12),
		NProcs:  int32(rng.Intn(1024) + 1),
		Start:   rng.Int63n(2_000_000_000),
		Runtime: rng.Float64() * 100000,
	}
	j.End = j.Start + int64(j.Runtime)
	n := rng.Intn(20)
	for i := 0; i < n; i++ {
		j.Records = append(j.Records, FileRecord{
			Module: Module(rng.Intn(3)),
			Path:   "/scratch/" + randString(rng, 16),
			Rank:   int32(rng.Intn(100)) - 1,
			C: Counters{
				Opens: rng.Int63n(100), Closes: rng.Int63n(100), Seeks: rng.Int63n(100),
				Stats: rng.Int63n(10), Reads: rng.Int63n(1000), Writes: rng.Int63n(1000),
				BytesRead: rng.Int63n(1 << 40), BytesWritten: rng.Int63n(1 << 40),
				OpenStart: rng.Float64() * 100, OpenEnd: rng.Float64() * 100,
				ReadStart: rng.Float64() * 100, ReadEnd: rng.Float64() * 100,
				WriteStart: rng.Float64() * 100, WriteEnd: rng.Float64() * 100,
				CloseStart: rng.Float64() * 100, CloseEnd: rng.Float64() * 100,
			},
		})
	}
	if rng.Intn(2) == 0 {
		j.Metadata = map[string]string{randString(rng, 5): randString(rng, 9)}
	}
	return j
}

func randString(rng *rand.Rand, n int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789_-"
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

// Property: binary round trip is the identity on arbitrary jobs.
func TestBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		j := randomJob(rng)
		data, err := MarshalBinary(j)
		if err != nil {
			return false
		}
		got, err := UnmarshalBinary(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(j, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	j := sampleJob()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, j); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j, got) {
		t.Fatalf("JSON round trip mismatch:\n in: %+v\nout: %+v", j, got)
	}
}

func TestJSONRejectsUnknownModule(t *testing.T) {
	data := []byte(`{"runtime": 10, "nprocs": 1, "records": [{"module": "NFS", "path": "x", "rank": 0, "counters": {}}]}`)
	if _, err := UnmarshalJob(data); err == nil {
		t.Fatal("unknown module accepted")
	}
}

func TestJSONModuleAliases(t *testing.T) {
	for _, name := range []string{"MPI-IO", "MPIIO"} {
		m, err := moduleFromString(name)
		if err != nil || m != ModMPIIO {
			t.Fatalf("moduleFromString(%q) = %v, %v", name, m, err)
		}
	}
}

func TestCorpusReadWrite(t *testing.T) {
	dir := t.TempDir()
	jobs := []*Job{sampleJob(), sampleJob()}
	jobs[1].JobID = 8
	jobs[1].User = "bob"
	if err := WriteCorpus(dir, jobs); err != nil {
		t.Fatal(err)
	}
	paths, err := ListCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("corpus has %d files, want 2", len(paths))
	}
	got, err := ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.User != "alice" && got.User != "bob" {
		t.Fatalf("unexpected user %q", got.User)
	}
}

func TestCorpusJSONExtension(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	if err := WriteFile(path, sampleJob()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sampleJob(), got) {
		t.Fatal("JSON file round trip mismatch")
	}
}

func TestListCorpusIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(dir, "a.mosd"), sampleJob()); err != nil {
		t.Fatal(err)
	}
	paths, err := ListCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("ListCorpus = %v", paths)
	}
}

func TestListCorpusSkipsTempAndPartialFiles(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(filepath.Join(dir, "good.mosd"), sampleJob()); err != nil {
		t.Fatal(err)
	}
	// Half-written artifacts a concurrent writer may leave behind: an
	// atomic-rename spool, an explicit partial marker, a dotfile, an
	// editor backup, and a hidden directory full of junk.
	for _, name := range []string{
		"half.mosd.tmp", "half.mosd.partial", ".hidden.mosd", "backup.mosd~", ".spool.json",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	hidden := filepath.Join(dir, ".staging")
	if err := os.MkdirAll(hidden, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(hidden, "x.mosd"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	paths, err := ListCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || filepath.Base(paths[0]) != "good.mosd" {
		t.Fatalf("ListCorpus = %v, want only good.mosd", paths)
	}
	// ScanCorpus must agree with ListCorpus on what a trace file is.
	var scanned []string
	if err := ScanCorpus(context.Background(), dir, func(p string) bool {
		scanned = append(scanned, p)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != 1 || filepath.Base(scanned[0]) != "good.mosd" {
		t.Fatalf("ScanCorpus = %v, want only good.mosd", scanned)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a/b c!d"); got != "a_b_c_d" {
		t.Fatalf("sanitize = %q", got)
	}
}
