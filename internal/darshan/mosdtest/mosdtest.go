// Package mosdtest builds, for tests, the .mosd files no writer in
// production produces: the two gzip file encodings — version 2, which
// pre-dates the prelude, and version 3, the prelude over a gzip body —
// and files whose prelude was edited and sealed again, so that both
// checksums hold and only a reader that compares the prelude with the
// body can tell. It works on bytes and knows the container layout on its
// own — it imports nothing of the codec — which makes every test built
// on it a second reading of that layout.
package mosdtest

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

const headerLen = 8 // magic, version, flag word

// gzipBody appends canonical's body, gzipped as the gzip writers of the
// file encoding did it (BestSpeed, no header fields), to buf.
func gzipBody(tb testing.TB, buf *bytes.Buffer, canonical []byte) {
	tb.Helper()
	zw, _ := gzip.NewWriterLevel(buf, gzip.BestSpeed)
	if _, err := zw.Write(canonical[headerLen:]); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
}

// V2File returns the pre-prelude file encoding of a trace given its
// canonical encoding (darshan.MarshalBinary): a version-2 header with the
// gzip flag over the same body, compressed.
func V2File(tb testing.TB, canonical []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	buf.Write(canonical[:6])
	buf.Write([]byte{1, 0}) // flag word: gzip body
	gzipBody(tb, &buf, canonical)
	return buf.Bytes()
}

// V3File returns the version-3 file encoding of a trace, byte for byte
// what the writer of that version wrote, given the trace's version-4 file
// (darshan.WriteBinary) and its canonical encoding (darshan.MarshalBinary):
// the version-4 prelude, unchanged, under a version-3 header with the
// gzip flag, then the canonical body gzipped, and both checksums
// computed afresh.
func V3File(tb testing.TB, file, canonical []byte) []byte {
	tb.Helper()
	_, end := parse(tb, file, 4)
	var buf bytes.Buffer
	buf.Write(file[:4])
	buf.Write([]byte{3, 0, 1, 0}) // version 3, flag word: gzip body
	buf.Write(file[headerLen:end])
	gzipBody(tb, &buf, canonical)
	out := buf.Bytes()
	seal(out, end)
	return out
}

// Prelude is the prelude of a version-3 or -4 file as its bytes hold it.
type Prelude struct {
	Rules     uint8
	User, App string
	Weight    int64
	Kind      uint8 // 0: the file claims a valid trace
	Record    int32
	Detail    string
}

// parse reads the prelude of a file of one of the given versions and
// returns it and where the body starts.
func parse(tb testing.TB, file []byte, versions ...uint16) (p Prelude, bodyOff int) {
	tb.Helper()
	le := binary.LittleEndian
	ok := false
	for _, v := range versions {
		ok = ok || len(file) >= headerLen && le.Uint16(file[4:]) == v
	}
	if !ok {
		tb.Fatalf("not a file of version %v: % x", versions, file[:min(len(file), headerLen)])
	}
	off := headerLen
	str := func() string {
		n := int(le.Uint32(file[off:]))
		off += 4 + n
		return string(file[off-n : off])
	}
	p.Rules = file[off]
	off++
	p.User, p.App = str(), str()
	p.Weight = int64(le.Uint64(file[off:]))
	p.Kind = file[off+8]
	p.Record = int32(le.Uint32(file[off+9:]))
	off += 13
	p.Detail = str()
	return p, off + 8 // past the two checksums
}

// seal computes both checksums of a file whose prelude ends at bodyOff.
func seal(file []byte, bodyOff int) {
	le := binary.LittleEndian
	le.PutUint32(file[bodyOff-8:], crc32.ChecksumIEEE(file[bodyOff:]))
	le.PutUint32(file[bodyOff-4:], crc32.ChecksumIEEE(file[:bodyOff-4]))
}

// EditPrelude returns a copy of a version-3 or -4 file (darshan.WriteBinary's
// output, or V3File's) with edit applied to its prelude and both
// checksums computed afresh; the body is untouched.
func EditPrelude(tb testing.TB, file []byte, edit func(*Prelude)) []byte {
	tb.Helper()
	p, bodyOff := parse(tb, file, 3, 4)
	edit(&p)

	le := binary.LittleEndian
	appendStr := func(b []byte, s string) []byte {
		return append(le.AppendUint32(b, uint32(len(s))), s...)
	}
	out := append([]byte(nil), file[:headerLen]...)
	out = append(out, p.Rules)
	out = appendStr(appendStr(out, p.User), p.App)
	out = le.AppendUint64(out, uint64(p.Weight))
	out = append(out, p.Kind)
	out = le.AppendUint32(out, uint32(p.Record))
	out = appendStr(out, p.Detail)
	out = append(out, 0, 0, 0, 0, 0, 0, 0, 0)
	end := len(out)
	out = append(out, file[bodyOff:]...)
	seal(out, end)
	return out
}
