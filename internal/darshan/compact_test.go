package darshan

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Tests of the version-4 file encoding: the compact body WriteBinary
// writes and the three walks that read it (decodeCompact for DecodeInto,
// inspectCompact for WalkBinary and InspectBinary).

// compactJob is a job at the edges of what the compact body codes:
// paths that share everything, nothing and part of the one before, one
// path that is a prefix of the next and one the next is a prefix of,
// counters at both ends of int64, ranks at both ends of int32, NaN and
// infinite timestamps, timestamps equal to the record before's and not,
// and DXT lists that step back, overlap and repeat.
func compactJob() *Job {
	j := sampleJob()
	j.Records = append(j.Records,
		FileRecord{Module: ModSTDIO, Path: "/scratch/out.dat", Rank: math.MinInt32,
			C: Counters{Opens: math.MaxInt64, Closes: math.MinInt64, Seeks: -1,
				OpenStart: math.NaN(), OpenEnd: math.Inf(1), ReadStart: math.Inf(-1), ReadEnd: -0.0,
				WriteStart: 3001, WriteEnd: 3100, CloseStart: math.SmallestNonzeroFloat64, CloseEnd: math.MaxFloat64}},
		FileRecord{Module: 200, Path: "/scratch/out.dat.1", Rank: math.MaxInt32,
			DXTReads: []DXTEvent{{Start: 1, End: 2, Offset: 1 << 40, Length: 4096},
				{Start: 0.5, End: 0.25, Offset: 0, Length: math.MaxInt64},
				{Start: 0.5, End: 0.25, Offset: math.MinInt64, Length: -7}},
			DXTWrites: []DXTEvent{{Start: 3, End: 4, Offset: 0, Length: 8}, {Start: 4, End: 5, Offset: 8, Length: 8}}},
		FileRecord{Path: "/scratch/out"},
		FileRecord{Path: ""},
		FileRecord{Path: "relative/path/" + strings.Repeat("x", 300), Rank: -1},
	)
	return j
}

// fileOf4 is WriteBinary's output for j and where its body starts.
func fileOf4(tb testing.TB, j *Job) (file []byte, bodyOff int) {
	tb.Helper()
	file = fileOf(tb, j)
	ct, err := new(decodeState).open(file)
	if err != nil || ct.version != fileFormatVersion {
		tb.Fatalf("WriteBinary wrote % x: %v", file[:headerLen], err)
	}
	return file, ct.bodyOff
}

// TestFileRoundTrip: what WriteBinary writes DecodeInto reads back as the
// job it was given — bit for bit, NaN included — over the job at the
// edges above and random jobs with DXT lists, and into a job that held
// another trace before.
func TestFileRoundTrip(t *testing.T) {
	check := func(t *testing.T, j *Job, into *Job) {
		t.Helper()
		want, err := MarshalBinary(j)
		if err != nil {
			t.Fatal(err)
		}
		file, _ := fileOf4(t, j)
		if err := DecodeInto(into, file); err != nil {
			t.Fatal(err)
		}
		got, err := MarshalBinary(into)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("decoded job differs:\n in: %+v\nout: %+v", j, into)
		}
	}
	check(t, compactJob(), new(Job))
	check(t, &Job{Runtime: 1, NProcs: 1}, compactJob())
	rng := rand.New(rand.NewSource(4))
	reused := new(Job)
	for i := 0; i < 200; i++ {
		j := randomJob(rng)
		for k := range j.Records {
			if rng.Intn(3) == 0 {
				j.Records[k].DXTWrites = []DXTEvent{{Start: rng.Float64(), End: rng.Float64(), Offset: rng.Int63(), Length: rng.Int63n(1 << 20)}}
			}
		}
		check(t, j, reused)
		got, err := UnmarshalBinary(fileOf(t, j))
		if err != nil || !reflect.DeepEqual(got, j) {
			t.Fatalf("job %d: UnmarshalBinary of its file: %+v, %v", i, got, err)
		}
	}
}

// TestCompactBodyIsSmall pins what the compact body saves on a burst of
// the generator's shape: a thousand ranks writing files that differ in
// the last character of their path, with small counters, at the same
// times. A record is then the path's two lengths and last byte, the
// counters, four width bytes and two empty DXT lists — 23 bytes. A body
// that stopped sharing path prefixes, writing varints or XOR-ing
// timestamps would grow by 20 bytes a record or more.
func TestCompactBodyIsSmall(t *testing.T) {
	j := &Job{User: "u", Exe: "/bin/app", NProcs: 1000, Runtime: 3600}
	for i := 0; i < 1000; i++ {
		j.Records = append(j.Records, FileRecord{Path: "/scratch/u/run/out.000" + string(rune('0'+i%10)),
			Rank: int32(i), C: Counters{Opens: 1, Closes: 1, Writes: 4, BytesWritten: 1 << 20,
				OpenStart: 100.25, OpenEnd: 100.5, WriteStart: 100.5, WriteEnd: 161.125, CloseStart: 161.125, CloseEnd: 161.5}})
	}
	canonical, _ := MarshalBinary(j)
	file, off := fileOf4(t, j)
	body := len(file) - off
	t.Logf("%d records: canonical body %d bytes, compact %d (%.1f bytes a record)", len(j.Records), len(canonical)-headerLen, body, float64(body)/1000)
	if body > 100+24*len(j.Records) {
		t.Errorf("compact body is %d bytes for %d records, want at most 24 a record", body, len(j.Records))
	}
}

// compactFile seals a version-4 file around body under a prelude written
// for other summaryRules, so that every read — InspectBinary's too —
// walks the body instead of believing the prelude.
func compactFile(body []byte) []byte {
	f := append(append([]byte(nil), Magic[:]...), 4, 0, 0, 0)
	f, _ = appendPrelude(f, Summary{})
	f[headerLen] = summaryRules + 1
	off := len(f)
	f = append(f, body...)
	sealPrelude(f, off)
	return f
}

// compactHead is the head of the bodies below, up to the record count.
func compactHead() []byte {
	head, _ := appendHead(nil, &Job{User: "u", Exe: "/bin/app", NProcs: 1, Runtime: 10})
	return head
}

// compactBody is a body of n records, the head of a valid job then the
// records rec appends, one call a record.
func compactBody(n int, rec func(b []byte, i int) []byte) []byte {
	b := appendU32(compactHead(), uint32(n))
	for i := 0; i < n; i++ {
		b = rec(b, i)
	}
	return b
}

// plainRecord appends a compact record with the given path lengths,
// rank, first counter and open pair widths byte; the rest is zero.
func plainRecord(b []byte, shared, suffix uint64, rank int64, opens []byte, widths byte) []byte {
	b = append(b, 0) // module
	b = binary.AppendUvarint(b, shared)
	b = binary.AppendUvarint(b, suffix)
	b = append(b, bytes.Repeat([]byte{'p'}, int(min(suffix, 1<<20)))...)
	b = binary.AppendVarint(b, rank)
	b = append(b, opens...)
	b = append(b, 0, 0, 0, 0, 0, 0, 0) // the other seven counters
	b = append(b, widths)
	b = append(b, bytes.Repeat([]byte{1}, int(widths&15+widths>>4))...)
	return append(b, 0, 0, 0, 0, 0) // three pairs, two empty DXT lists
}

// TestCompactRefusals: each way a compact body can lie is refused with
// its own error — by DecodeInto, WalkBinary and InspectBinary alike —
// and refusing it allocates nothing near what the lie claims.
func TestCompactRefusals(t *testing.T) {
	zero := []byte{0}
	tenBytes := append(bytes.Repeat([]byte{0xff}, 9), 0x02) // a 65th bit
	const mib = 1 << 20
	cases := []struct {
		name, want string
		body       []byte
		maxAlloc   uint64
	}{
		{"valid", "", compactBody(2, func(b []byte, i int) []byte {
			return plainRecord(b, uint64(i), 3, -1, zero, 0x11)
		}), 64 << 10},
		{"prefix longer than the previous path", "path shares 4 bytes with a previous path of 3", compactBody(2, func(b []byte, i int) []byte {
			return plainRecord(b, uint64(4*i), 3, 0, zero, 0)
		}), 64 << 10},
		{"first path shares a prefix", "path shares 1 bytes with a previous path of 0", compactBody(1, func(b []byte, i int) []byte {
			return plainRecord(b, 1, 3, 0, zero, 0)
		}), 64 << 10},
		{"path past the string limit", "path length 1048576+1 exceeds limit", compactBody(2, func(b []byte, i int) []byte {
			return plainRecord(b, uint64(i*mib), uint64(mib*(1-i)+i), 0, zero, 0)
		}), 8 << 20},
		{"varint overflow", "varint overflows 64 bits", compactBody(1, func(b []byte, i int) []byte {
			return plainRecord(b, 0, 1, 0, tenBytes, 0)
		}), 64 << 10},
		{"varint cut short", "truncated body: unexpected EOF", compactBody(1, func(b []byte, i int) []byte {
			b = plainRecord(b, 0, 1, 0, zero, 0)
			b[len(b)-1] = 0x80 // the last DXT count goes on past the end
			return b
		}), 64 << 10},
		{"timestamp width 9", "timestamp width 9 exceeds 8", compactBody(1, func(b []byte, i int) []byte {
			return plainRecord(b, 0, 1, 0, zero, 0x09)
		}), 64 << 10},
		{"timestamp width 15", "timestamp width 15 exceeds 8", compactBody(1, func(b []byte, i int) []byte {
			return plainRecord(b, 0, 1, 0, zero, 0xf0)
		}), 64 << 10},
		{"rank past int32", "rank 2147483648 outside int32", compactBody(1, func(b []byte, i int) []byte {
			return plainRecord(b, 0, 1, math.MaxInt32+1, zero, 0)
		}), 64 << 10},
		{"rank below int32", "rank -2147483649 outside int32", compactBody(1, func(b []byte, i int) []byte {
			return plainRecord(b, 0, 1, math.MinInt32-1, zero, 0)
		}), 64 << 10},
		{"records beyond the bytes left", "record count 1000 exceeds remaining bytes", compactBody(1, func(b []byte, i int) []byte {
			binary.LittleEndian.PutUint32(b[len(compactHead()):], 1000)
			return plainRecord(b, 0, 1, 0, zero, 0)
		}), 64 << 10},
		{"DXT events beyond the bytes left", "DXT list count 1000000 exceeds remaining bytes", compactBody(1, func(b []byte, i int) []byte {
			b = plainRecord(b, 0, 1, 0, zero, 0)
			return binary.AppendUvarint(b[:len(b)-2], 1000000)
		}), 64 << 10},
		{"DXT events past the list limit", "DXT list count 16777217 exceeds limit", compactBody(1, func(b []byte, i int) []byte {
			b = plainRecord(b, 0, 1, 0, zero, 0)
			return binary.AppendUvarint(b[:len(b)-2], maxDXTPerList+1)
		}), 64 << 10},
		{"path cut short", "truncated body: unexpected EOF", compactBody(1, func(b []byte, i int) []byte {
			b = plainRecord(b, 0, 1000, 0, zero, 0)
			return b[:len(b)-900]
		}), 64 << 10},
		// About 21 bytes a record repeat a 1 MiB path: 1 025 of them
		// decode past maxBodyBytes, and the walk must say so before it
		// holds any of it.
		{"shared prefix past maxBodyBytes", "body exceeds 1073741824 byte limit", compactBody(1025, func(b []byte, i int) []byte {
			if i == 0 {
				return plainRecord(b, 0, mib, 0, zero, 0)
			}
			return plainRecord(b, mib, 0, 0, zero, 0)
		}), 4 << 20},
	}
	for _, tc := range cases {
		file := compactFile(tc.body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		j := new(Job)
		_, derr := DecodeCanonical(j, file)
		runtime.ReadMemStats(&after)
		inspectAgrees(t, tc.name, file)
		switch {
		case tc.want == "" && derr != nil:
			t.Errorf("%s: %v", tc.name, derr)
		case tc.want != "" && (derr == nil || !strings.Contains(derr.Error(), tc.want)):
			t.Errorf("%s: %v, want %q", tc.name, derr, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; tc.maxAlloc > 0 && grew > tc.maxAlloc {
			t.Errorf("%s: decoding allocated %d bytes, want at most %d", tc.name, grew, tc.maxAlloc)
		}
	}
}

// jobFromBytes builds a job from arbitrary bytes, every field drawn from
// them as they come — any counter, rank, module, float bit pattern, path
// sharing any part of the one before — so that the fuzzer steers the
// encoder as well as the decoder.
func jobFromBytes(data []byte) *Job {
	next := func(n int) []byte {
		var b [8]byte
		copy(b[:], data[:min(n, len(data))])
		data = data[min(n, len(data)):]
		return b[:n]
	}
	u64 := func() uint64 { return binary.LittleEndian.Uint64(next(8)) }
	f64 := func() float64 { return math.Float64frombits(u64()) }
	j := &Job{JobID: u64(), User: "u", Exe: "/bin/app", NProcs: int32(u64()), Runtime: f64()}
	prev := ""
	for n := int(next(1)[0] % 6); n > 0; n-- {
		shape := next(1)[0]
		path := prev[:min(len(prev), int(shape&7))] + string(next(int(shape>>5)))
		prev = path
		r := FileRecord{Module: Module(next(1)[0]), Path: path, Rank: int32(u64())}
		c := &r.C
		for _, p := range []*int64{&c.Opens, &c.Closes, &c.Seeks, &c.Stats, &c.Reads, &c.Writes, &c.BytesRead, &c.BytesWritten} {
			*p = int64(u64()) >> (next(1)[0] % 64)
		}
		for _, p := range []*float64{&c.OpenStart, &c.OpenEnd, &c.ReadStart, &c.ReadEnd, &c.WriteStart, &c.WriteEnd, &c.CloseStart, &c.CloseEnd} {
			*p = f64()
		}
		for k := int(shape>>3) & 3; k > 0; k-- {
			r.DXTWrites = append(r.DXTWrites, DXTEvent{Start: f64(), End: f64(), Offset: int64(u64()), Length: int64(u64())})
		}
		j.Records = append(j.Records, r)
	}
	return j
}

// FuzzDecodeV4: a job built from the bytes comes back from WriteBinary
// as itself; the bytes as a version-4 body never panic a read, every
// read of them agrees (inspectAgrees: the same error, or the summary of
// the job DecodeInto made), a body that decodes is a fixed point of
// WriteBinary, and a warm WalkBinary allocates nothing that grows with
// the body — at most its error and the user and executable names.
func FuzzDecodeV4(f *testing.F) {
	for _, j := range []*Job{sampleJob(), compactJob(), {Runtime: 1, NProcs: 1}} {
		file, off := fileOf4(f, j)
		f.Add(file[off:])
	}
	f.Add(compactBody(2, func(b []byte, i int) []byte { return plainRecord(b, uint64(i), 3, -1, []byte{0}, 0x11) }))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		j := jobFromBytes(data)
		file, _ := fileOf4(t, j)
		var got Job
		if err := DecodeInto(&got, file); err != nil {
			t.Fatalf("WriteBinary's own file: %v", err)
		}
		want, _ := MarshalBinary(j)
		if enc, _ := MarshalBinary(&got); !bytes.Equal(enc, want) {
			t.Fatal("a job does not survive WriteBinary and DecodeInto")
		}

		file = compactFile(data)
		inspectAgrees(t, "fuzz body", file)
		var dec Job
		names := uint64(len(data))
		if err := DecodeInto(&dec, file); err == nil {
			names = uint64(len(dec.User) + len(dec.Exe))
			again, _ := fileOf4(t, &dec)
			var twice Job
			if err := DecodeInto(&twice, again); err != nil {
				t.Fatal(err)
			}
			a, _ := MarshalBinary(&dec)
			b, _ := MarshalBinary(&twice)
			if !bytes.Equal(a, b) {
				t.Fatal("a decoded body is not a fixed point of WriteBinary")
			}
		}
		// The least of ten readings: the fuzzing process allocates on
		// other goroutines too, and under -race sync.Pool drops a
		// quarter of its puts, so a walk may start on a fresh state.
		grew := ^uint64(0)
		var before, after runtime.MemStats
		for range 10 {
			runtime.ReadMemStats(&before)
			_, _ = WalkBinary(file)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > 1<<10+names {
			t.Fatalf("walking a %d-byte body allocated %d bytes", len(data), grew)
		}
	})
}
