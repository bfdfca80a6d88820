// Package mosdtest builds, for tests, the .mosd files no writer in the
// tree produces: the version-2 file encoding that pre-dates the prelude,
// and version-3 files whose prelude was edited and sealed again, so that
// both checksums hold and only a reader that compares the prelude with
// the body can tell. It works on bytes and knows the container layout on
// its own — it imports nothing of the codec — which makes every test
// built on it a second reading of that layout.
package mosdtest

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

const headerLen = 8 // magic, version, flag word

// V2File returns the pre-prelude file encoding of a trace given its
// canonical encoding (darshan.MarshalBinary): a version-2 header with the
// gzip flag over the same body, compressed.
func V2File(tb testing.TB, canonical []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	buf.Write(canonical[:6])
	buf.Write([]byte{1, 0}) // flag word: gzip body
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if _, err := zw.Write(canonical[headerLen:]); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// Prelude is the prelude of a version-3 file as its bytes hold it.
type Prelude struct {
	Rules     uint8
	User, App string
	Weight    int64
	Kind      uint8 // 0: the file claims a valid trace
	Record    int32
	Detail    string
}

// EditPrelude returns a copy of a version-3 file (darshan.WriteBinary's
// output) with edit applied to its prelude and both checksums computed
// afresh; the body is untouched.
func EditPrelude(tb testing.TB, file []byte, edit func(*Prelude)) []byte {
	tb.Helper()
	if len(file) < headerLen || binary.LittleEndian.Uint16(file[4:]) != 3 {
		tb.Fatalf("not a version-3 file: % x", file[:min(len(file), headerLen)])
	}
	le := binary.LittleEndian
	off := headerLen
	str := func() string {
		n := int(le.Uint32(file[off:]))
		off += 4 + n
		return string(file[off-n : off])
	}
	var p Prelude
	p.Rules = file[off]
	off++
	p.User, p.App = str(), str()
	p.Weight = int64(le.Uint64(file[off:]))
	p.Kind = file[off+8]
	p.Record = int32(le.Uint32(file[off+9:]))
	off += 13
	p.Detail = str()
	body := file[off+8:] // past the two checksums

	edit(&p)

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
	out = le.AppendUint32(out, crc32.ChecksumIEEE(body))
	out = le.AppendUint32(out, crc32.ChecksumIEEE(out))
	return append(out, body...)
}
