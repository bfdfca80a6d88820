package darshan

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"sort"
	"strings"
	"sync"
)

// Binary codec for Darshan-like logs. Real Darshan logs are a compressed
// binary container (zlib regions indexed by a header); we reproduce the
// same architecture with a small header followed by a little-endian body
// in one of a few layouts, selected by the header's version and flag
// word. The format is versioned and self-describing enough for the
// corpus reader to reject foreign files cheaply.
//
// Layout:
//
//	magic   [4]byte  "MOSD"
//	version uint16   (2, or 3 or 4 for the file encoding)
//	flags   uint16   (bit 0: body is gzip-compressed)
//	prelude — versions 3 and 4, see appendPrelude
//	body    — little-endian fields, see appendBody; version 4 delta-codes
//	          the records, see appendCompactBody
//
// Strings are length-prefixed (uint32 + raw bytes). All multi-byte values
// are little-endian.
//
// Two encodings are written:
//
//   - The canonical encoding (MarshalBinary / AppendEncode) is version 2
//     with a raw body. It is the content-addressing identity
//     (store.TraceKey hashes these bytes) and the ingest hot path:
//     encoding is a single buffer append and decoding parses in place with
//     zero copies.
//   - The file encoding (WriteBinary, .mosd corpora) is version 4, flag
//     word 0: an uncompressed prelude that holds the trace's Summary and a
//     checksum of the body — what the corpus funnel reads of a trace — and
//     a compact body that the decoder reads where it lies, nothing
//     inflated. Any other flag word is refused.
//
// Two more are read and no longer written: version 3 (the version-4
// prelude over the canonical body, gzipped; flag word 1 only) and
// version 2 with the gzip flag (the file encoding before the prelude,
// inflated and walked for its summary, as every file then was).
// internal/darshan/mosdtest writes both, for tests.
//
// All of them are decoded by the same reader — the version and flag word
// the input carries, not the API, select the path — so blobs written by
// any of them remain interchangeable.
//
// The decode hot path makes one allocation when warm: the inflater's
// tables, inflate arenas and scratch buffers are pooled via sync.Pool,
// DecodeInto reuses the caller's Record/Metadata storage, user, exe and
// metadata strings are interned in a bounded per-state table (repeated
// decodes of traces sharing them hit the table and allocate nothing),
// and the record paths of one job — nearly all distinct — are cut from a
// single string the job owns.

// Magic identifies MOSAIC Darshan-like binary logs.
var Magic = [4]byte{'M', 'O', 'S', 'D'}

// FormatVersion is the version of the canonical encoding, and the oldest
// the reader accepts.
const FormatVersion uint16 = 2

// fileFormatVersion is what WriteBinary writes: a prelude, then the
// compact body, flag word 0.
const fileFormatVersion uint16 = 4

// gzipFileVersion is the file encoding before fileFormatVersion: the
// same prelude, then the body layout of FormatVersion gzipped, flag word
// flagGzip. It is read and no longer written.
const gzipFileVersion uint16 = 3

const flagGzip uint16 = 1 << 0

// headerLen is the fixed container prefix: magic, version, flags.
const headerLen = 8

// Limits protecting the decoder against corrupted or hostile inputs.
const (
	maxStringLen  = 1 << 20 // 1 MiB per string
	maxRecords    = 1 << 26 // 64M records per job
	maxMetaPairs  = 1 << 16
	maxDXTPerList = 1 << 24 // 16M traced segments per record
	// maxBodyBytes bounds a file and what one body decodes to: the
	// inflated size of a gzip body (gzip-bomb guard), and the canonical
	// size of what a compact body holds (a shared path prefix is its
	// bomb).
	maxBodyBytes = 1 << 30
)

// Minimum encoded sizes, used to validate hostile element counts against
// the bytes actually present before allocating.
const (
	recordTailLen  = 4 + 16*8              // rank + 16 counters, fixed width after the path
	minRecordLen   = 4 + 4 + recordTailLen // module + path prefix + tail
	dxtEventLen    = 4 * 8
	minMetaPairLen = 4 + 4 // two empty length-prefixed strings

	// canonRecordLen is a record's canonical size less its path and DXT
	// events: what a compact record counts for against maxBodyBytes.
	canonRecordLen = minRecordLen + 4 + 4
	// A compact record is at least a module, the two path lengths, the
	// rank, eight counters, four width bytes and two DXT counts; a
	// compact DXT event a width byte and two deltas.
	minCompactRecordLen = 1 + 1 + 1 + 1 + 8 + 4 + 1 + 1
	minCompactEventLen  = 1 + 1 + 1
)

// ErrBadMagic reports that a stream does not start with the MOSD magic.
var ErrBadMagic = errors.New("darshan: bad magic (not a MOSAIC binary log)")

// ErrBadVersion reports an unsupported format version.
var ErrBadVersion = errors.New("darshan: unsupported format version")

// maxPooledBuf bounds what is returned to the buffer pools: one
// pathological trace must not pin a giant arena for the process
// lifetime.
const maxPooledBuf = 8 << 20

// ---- Encoding ----

// encodeState is the pooled per-encode scratch: the metadata key-sorting
// slice and, for WriteBinary, the file being assembled.
type encodeState struct {
	keys []string
	file []byte
}

var encodeStatePool = sync.Pool{New: func() any { return new(encodeState) }}

// AppendEncode appends the canonical (raw-body) binary encoding of j to
// dst and returns the extended slice. This is the zero-allocation encode
// path: callers that reuse dst across traces pay only the bytes they
// append. The result is what store.TraceKey hashes.
func AppendEncode(dst []byte, j *Job) ([]byte, error) {
	dst = append(dst, Magic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, FormatVersion)
	dst = binary.LittleEndian.AppendUint16(dst, 0)
	return appendBody(dst, j)
}

// MarshalBinary returns the canonical binary encoding of the job.
func MarshalBinary(j *Job) ([]byte, error) {
	return AppendEncode(make([]byte, 0, encodedLen(j)), j)
}

// encodedLen computes the exact canonical encoding size, so MarshalBinary
// allocates once.
func encodedLen(j *Job) int {
	n := headerLen + 8 + 4 + (4 + len(j.User)) + (4 + len(j.Exe)) + 4 + 8 + 8 + 8
	n += 4
	for k, v := range j.Metadata {
		n += 4 + len(k) + 4 + len(v)
	}
	n += 4
	for i := range j.Records {
		r := &j.Records[i]
		n += minRecordLen + len(r.Path) + 4 + dxtEventLen*len(r.DXTReads) + 4 + dxtEventLen*len(r.DXTWrites)
	}
	return n
}

// WriteBinary encodes the job to w in the at-rest .mosd file encoding,
// version 4: the header, the prelude — Summarize(j) and a checksum of
// what follows, itself checksummed — and the compact body
// (appendCompactBody). The file is assembled in memory, since the prelude
// precedes the bytes it sums, and written in one call.
func WriteBinary(w io.Writer, j *Job) error {
	st := encodeStatePool.Get().(*encodeState)
	f := append(st.file[:0], Magic[:]...)
	f = binary.LittleEndian.AppendUint16(f, fileFormatVersion)
	f = binary.LittleEndian.AppendUint16(f, 0)
	f, err := appendPrelude(f, Summarize(j))
	bodyOff := len(f)
	if err == nil {
		f, err = appendCompactBody(f, j)
	}
	if err == nil {
		sealPrelude(f, bodyOff)
		_, err = w.Write(f)
	}
	if cap(f) <= maxPooledBuf {
		st.file = f[:0]
	} else {
		st.file = nil
	}
	encodeStatePool.Put(st)
	return err
}

// The prelude of a version-3 or -4 file sits between the header and the
// body, uncompressed:
//
//	rules   uint8   summaryRules of the writer
//	user    string  \
//	app     string   | Summarize(j): User, App, Weight and, of Invalid,
//	weight  int64    | the *ValidationError's Kind (0: valid), Record
//	kind    uint8    | and Detail
//	record  int32    |
//	detail  string  /
//	bodysum uint32  CRC-32 (IEEE) of every byte after the prelude
//	sum     uint32  CRC-32 (IEEE) of the header and the prelude before it
//
// It is a hint that is always checked for what is kept: InspectBinary
// answers from it without inflating, and every full read — DecodeInto,
// WalkBinary — compares it with the summary of the body it decoded
// (ErrPreludeMismatch). The two checksums are verified by both, before
// anything is inflated, so a torn or damaged file is unreadable to the
// funnel exactly as it is to the decoder.
//
// appendPrelude leaves the two checksums zero: they cover bytes not yet
// written, and sealPrelude fills them in.
func appendPrelude(dst []byte, s Summary) ([]byte, error) {
	var invalid ValidationError // the zero value says valid: CorruptNone
	if v, ok := s.Invalid.(*ValidationError); ok {
		invalid = *v
	}
	var err error
	dst = append(dst, summaryRules)
	if dst, err = appendStr(dst, s.User); err != nil {
		return dst, err
	}
	if dst, err = appendStr(dst, s.App); err != nil {
		return dst, err
	}
	dst = appendI64(dst, s.Weight)
	dst = append(dst, byte(invalid.Kind))
	dst = appendU32(dst, uint32(int32(invalid.Record)))
	if dst, err = appendStr(dst, invalid.Detail); err != nil {
		return dst, err
	}
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), nil
}

// sealPrelude fills in the two checksums of a file whose prelude ends at
// bodyOff.
func sealPrelude(file []byte, bodyOff int) {
	binary.LittleEndian.PutUint32(file[bodyOff-8:], crc32.ChecksumIEEE(file[bodyOff:]))
	binary.LittleEndian.PutUint32(file[bodyOff-4:], crc32.ChecksumIEEE(file[:bodyOff-4]))
}

func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendI64(dst []byte, v int64) []byte  { return appendU64(dst, uint64(v)) }
func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

func appendStr(dst []byte, s string) ([]byte, error) {
	if len(s) > maxStringLen {
		return dst, fmt.Errorf("darshan: string too long (%d bytes)", len(s))
	}
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...), nil
}

func appendBody(dst []byte, j *Job) ([]byte, error) {
	dst, err := appendHead(dst, j)
	if err != nil {
		return dst, err
	}
	dst = appendU32(dst, uint32(len(j.Records)))
	for i := range j.Records {
		r := &j.Records[i]
		dst = appendU32(dst, uint32(r.Module))
		if dst, err = appendStr(dst, r.Path); err != nil {
			return dst, err
		}
		dst = appendU32(dst, uint32(r.Rank))
		c := &r.C
		dst = appendI64(dst, c.Opens)
		dst = appendI64(dst, c.Closes)
		dst = appendI64(dst, c.Seeks)
		dst = appendI64(dst, c.Stats)
		dst = appendI64(dst, c.Reads)
		dst = appendI64(dst, c.Writes)
		dst = appendI64(dst, c.BytesRead)
		dst = appendI64(dst, c.BytesWritten)
		dst = appendF64(dst, c.OpenStart)
		dst = appendF64(dst, c.OpenEnd)
		dst = appendF64(dst, c.ReadStart)
		dst = appendF64(dst, c.ReadEnd)
		dst = appendF64(dst, c.WriteStart)
		dst = appendF64(dst, c.WriteEnd)
		dst = appendF64(dst, c.CloseStart)
		dst = appendF64(dst, c.CloseEnd)
		dst = appendDXTList(dst, r.DXTReads)
		dst = appendDXTList(dst, r.DXTWrites)
	}
	return dst, nil
}

// appendHead appends what opens every body, canonical and compact: the
// job fields and the metadata.
func appendHead(dst []byte, j *Job) ([]byte, error) {
	var err error
	dst = appendU64(dst, j.JobID)
	dst = appendU32(dst, j.UID)
	if dst, err = appendStr(dst, j.User); err != nil {
		return dst, err
	}
	if dst, err = appendStr(dst, j.Exe); err != nil {
		return dst, err
	}
	dst = appendU32(dst, uint32(j.NProcs))
	dst = appendI64(dst, j.Start)
	dst = appendI64(dst, j.End)
	dst = appendF64(dst, j.Runtime)

	dst = appendU32(dst, uint32(len(j.Metadata)))
	if len(j.Metadata) > 0 {
		// Metadata keys are emitted sorted so that encoding is a pure
		// function of the Job value: same corpus seed ⇒ byte-identical
		// encodings, and content addresses are stable.
		st := encodeStatePool.Get().(*encodeState)
		keys := st.keys[:0]
		for k := range j.Metadata {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if dst, err = appendStr(dst, k); err != nil {
				break
			}
			if dst, err = appendStr(dst, j.Metadata[k]); err != nil {
				break
			}
		}
		st.keys = keys[:0]
		encodeStatePool.Put(st)
	}
	return dst, err
}

func appendDXTList(dst []byte, events []DXTEvent) []byte {
	dst = appendU32(dst, uint32(len(events)))
	for i := range events {
		ev := &events[i]
		dst = appendF64(dst, ev.Start)
		dst = appendF64(dst, ev.End)
		dst = appendI64(dst, ev.Offset)
		dst = appendI64(dst, ev.Length)
	}
	return dst
}

// The compact body of a version-4 file is appendBody's with the records
// delta-coded, each against the one before it. The head — the job
// fields, the metadata and the record count — is appendBody's byte for
// byte; each record is then
//
//	module   uint8
//	shared   uvarint  leading bytes of the path shared with the previous
//	                  record's path (0 for the first record)
//	suffix   uvarint  length, then that many bytes: the rest of the path
//	rank     varint
//	counters 8 × varint: Opens, Closes, Seeks, Stats, Reads, Writes,
//	         BytesRead, BytesWritten
//	times    4 pairs — open, read, write, close — of appendPair's, each
//	         against the previous record's same pair (zero before the
//	         first record)
//	reads    DXT list of appendCompactDXT's
//	writes   DXT list of appendCompactDXT's
//
// The varints are encoding/binary's (a varint is a zigzag uvarint). A
// decoder holds the count of records and DXT events to the bytes left,
// and the canonical size of what it decodes — paths included, however
// short their encoding — to maxBodyBytes.
func appendCompactBody(dst []byte, j *Job) ([]byte, error) {
	dst, err := appendHead(dst, j)
	if err != nil {
		return dst, err
	}
	dst = appendU32(dst, uint32(len(j.Records)))
	prevPath := ""
	var open, read, write, close [2]uint64
	for i := range j.Records {
		r := &j.Records[i]
		if len(r.Path) > maxStringLen {
			return dst, fmt.Errorf("darshan: string too long (%d bytes)", len(r.Path))
		}
		shared := sharedPrefix(prevPath, r.Path)
		prevPath = r.Path
		dst = append(dst, byte(r.Module))
		dst = binary.AppendUvarint(dst, uint64(shared))
		dst = binary.AppendUvarint(dst, uint64(len(r.Path)-shared))
		dst = append(dst, r.Path[shared:]...)
		dst = binary.AppendVarint(dst, int64(r.Rank))
		c := &r.C
		dst = binary.AppendVarint(dst, c.Opens)
		dst = binary.AppendVarint(dst, c.Closes)
		dst = binary.AppendVarint(dst, c.Seeks)
		dst = binary.AppendVarint(dst, c.Stats)
		dst = binary.AppendVarint(dst, c.Reads)
		dst = binary.AppendVarint(dst, c.Writes)
		dst = binary.AppendVarint(dst, c.BytesRead)
		dst = binary.AppendVarint(dst, c.BytesWritten)
		dst = appendPair(dst, &open, c.OpenStart, c.OpenEnd)
		dst = appendPair(dst, &read, c.ReadStart, c.ReadEnd)
		dst = appendPair(dst, &write, c.WriteStart, c.WriteEnd)
		dst = appendPair(dst, &close, c.CloseStart, c.CloseEnd)
		dst = appendCompactDXT(dst, r.DXTReads)
		dst = appendCompactDXT(dst, r.DXTWrites)
	}
	return dst, nil
}

// sharedPrefix is the length of the longest common prefix of a and b.
func sharedPrefix(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// appendPair appends a timestamp pair: one byte holding the widths of
// the two values (low nibble the first, high the second), then for each
// the low bytes of its bits XOR'd with prev's, little-endian, as many as
// the XOR has once its zero high bytes are trimmed (0 to 8). Timestamps
// close to the previous record's share their sign, exponent and high
// mantissa, and an unused pair is (0, 0) twice over: both cost nothing.
// prev becomes the pair's bits.
func appendPair(dst []byte, prev *[2]uint64, a, b float64) []byte {
	ab, bb := math.Float64bits(a), math.Float64bits(b)
	xa, xb := ab^prev[0], bb^prev[1]
	prev[0], prev[1] = ab, bb
	wa, wb := (bits.Len64(xa)+7)/8, (bits.Len64(xb)+7)/8
	dst = append(dst, byte(wa|wb<<4))
	n := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, xa)[:n+wa]
	n += wa
	return binary.LittleEndian.AppendUint64(dst, xb)[:n+wb]
}

// appendCompactDXT appends one DXT list of a compact record: a uvarint
// count, then per event its (Start, End) pair of appendPair's against the
// event before it in the list, a varint Offset less where the event
// before it ended (Offset + Length) and a varint Length less the event
// before it's — contiguous equal segments cost three bytes each.
func appendCompactDXT(dst []byte, events []DXTEvent) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	var t [2]uint64
	var end, length int64
	for i := range events {
		ev := &events[i]
		dst = appendPair(dst, &t, ev.Start, ev.End)
		dst = binary.AppendVarint(dst, ev.Offset-end)
		dst = binary.AppendVarint(dst, ev.Length-length)
		end, length = ev.Offset+ev.Length, ev.Length
	}
	return dst
}

// ---- Decoding ----

// Intern table bounds: users, executables and metadata repeat heavily
// across traces, so small strings are deduplicated into a bounded table
// on the pooled decode state. A full table degrades to plain copying,
// never to an error. Record paths do not go through it: within a job
// they are nearly all distinct, and a long-lived process would fill the
// table with the first few thousand file names it saw.
const (
	maxInternStrLen  = 256
	maxInternEntries = 4096
	maxInternBytes   = 1 << 20
)

// pathSpan locates one record's path in the body being decoded: n bytes
// at off, after, in a compact body, the first shared bytes of the path
// before it.
type pathSpan struct{ off, n, shared int }

// decodeState is the pooled per-decode scratch: the inflater and its
// output arena, the string intern table, the record-path spans of the
// job in flight and, for a walk that materializes no job (inspectBody),
// the DXT lists its one scratch record reuses. States cycle through a
// sync.Pool, so a warm decode path reuses all of it.
type decodeState struct {
	z           inflater
	arena       []byte
	paths       []pathSpan
	intern      map[string]string
	internBytes int
	dxtReads    []DXTEvent
	dxtWrites   []DXTEvent
}

var decodeStatePool = sync.Pool{New: func() any { return new(decodeState) }}

func (st *decodeState) internString(b []byte) string {
	if len(b) > maxInternStrLen {
		return string(b)
	}
	if s, ok := st.intern[string(b)]; ok { // no-alloc map probe
		return s
	}
	s := string(b)
	if len(st.intern) < maxInternEntries && st.internBytes+len(s) <= maxInternBytes {
		if st.intern == nil {
			st.intern = make(map[string]string, 64)
		}
		st.intern[s] = s
		st.internBytes += len(s)
	}
	return s
}

// inflate decompresses a gzip body into the state's arena and returns
// the decompressed bytes, rejecting bodies past maxBodyBytes, a second
// member and trailing garbage after the first.
func (st *decodeState) inflate(src []byte) ([]byte, error) {
	body, err := st.z.gunzip(st.arena[:0], src)
	if err != nil {
		return nil, err
	}
	st.arena = body
	return body, nil
}

func putDecodeState(st *decodeState) {
	if cap(st.arena) > maxPooledBuf {
		st.arena = nil
	}
	if cap(st.paths) > maxPooledBuf/16 {
		st.paths = nil
	}
	if cap(st.dxtReads) > maxPooledBuf/dxtEventLen {
		st.dxtReads = nil
	}
	if cap(st.dxtWrites) > maxPooledBuf/dxtEventLen {
		st.dxtWrites = nil
	}
	decodeStatePool.Put(st)
}

// cursor is the incremental body parser: a bounds-checked offset walking
// one flat byte slice. No intermediate readers, no per-field copies.
type cursor struct {
	data []byte
	off  int
	st   *decodeState
	err  error
	// noncanon is set when the body decoded so far cannot be what
	// appendBody writes for the job it produced: metadata keys out of
	// strictly ascending order, or a field narrowed on decode.
	noncanon bool
	// decoded is, in a compact body, the canonical size of what the
	// walk has decoded so far (grow).
	decoded int64
}

func (c *cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// need reports whether n more bytes are available, failing the cursor
// with a truncation error otherwise.
func (c *cursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if len(c.data)-c.off < n {
		c.fail(fmt.Errorf("darshan: truncated body: %w", io.ErrUnexpectedEOF))
		return false
	}
	return true
}

// checkCount validates an element count against both its absolute limit
// and the bytes actually remaining (each element needs at least minLen
// bytes), so hostile counts fail before any proportional allocation.
func (c *cursor) checkCount(n, limit uint64, minLen int, what string) bool {
	if c.err != nil {
		return false
	}
	if n > limit {
		c.fail(fmt.Errorf("darshan: %s count %d exceeds limit", what, n))
		return false
	}
	if int64(len(c.data)-c.off) < int64(n)*int64(minLen) { // n ≤ limit: no overflow
		c.fail(fmt.Errorf("darshan: truncated body: %s count %d exceeds remaining bytes", what, n))
		return false
	}
	return true
}

func (c *cursor) u8() uint8 {
	if !c.need(1) {
		return 0
	}
	v := c.data[c.off]
	c.off++
	return v
}

func (c *cursor) u32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(c.data[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.data[c.off:])
	c.off += 8
	return v
}

func (c *cursor) i64() int64   { return int64(c.u64()) }
func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// uvarint decodes one uvarint as encoding/binary writes it: at most ten
// bytes, the tenth at most 1. Read past a failure, the value is as
// meaningless as any then. A one-load fast path measured no faster here,
// alone or across a record's nine varints in a row (DESIGN §10).
func (c *cursor) uvarint() uint64 {
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if !c.need(i + 1) {
			return 0
		}
		b := c.data[c.off+i]
		if i == binary.MaxVarintLen64-1 && b > 1 {
			break
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			c.off += i + 1
			return v
		}
	}
	c.fail(errors.New("darshan: varint overflows 64 bits"))
	return 0
}

// varint decodes one varint (a zigzag uvarint).
func (c *cursor) varint() int64 {
	u := c.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// times decodes a compact record's four timestamp pairs — open, read,
// write, close — each of appendPair's against the same pair in prev,
// which becomes the record's.
func (c *cursor) times(cc *Counters, prev *[4][2]uint64) {
	cc.OpenStart, cc.OpenEnd = c.pair(&prev[0])
	cc.ReadStart, cc.ReadEnd = c.pair(&prev[1])
	cc.WriteStart, cc.WriteEnd = c.pair(&prev[2])
	cc.CloseStart, cc.CloseEnd = c.pair(&prev[3])
}

// pair decodes one timestamp pair of appendPair's against prev, which
// becomes the pair's bits. Where 17 bytes are left — the longest pair —
// it is two loads and two masks; byte by byte (pairLong) a warm compact
// decode takes about 15 % longer.
func (c *cursor) pair(prev *[2]uint64) (a, b float64) {
	if len(c.data)-c.off >= 17 {
		w := c.data[c.off]
		if wa, wb := uint(w&15), uint(w>>4); wa <= 8 && wb <= 8 {
			le := binary.LittleEndian
			prev[0] ^= le.Uint64(c.data[c.off+1:]) & (1<<(8*wa) - 1)
			prev[1] ^= le.Uint64(c.data[c.off+1+int(wa):]) & (1<<(8*wb) - 1)
			c.off += 1 + int(wa+wb)
			return math.Float64frombits(prev[0]), math.Float64frombits(prev[1])
		}
	}
	return c.pairLong(prev)
}

func (c *cursor) pairLong(prev *[2]uint64) (a, b float64) {
	w := c.u8()
	wa, wb := int(w&15), int(w>>4)
	if c.err == nil && max(wa, wb) > 8 {
		c.fail(fmt.Errorf("darshan: timestamp width %d exceeds 8", max(wa, wb)))
	}
	if !c.need(wa + wb) {
		return 0, 0
	}
	for _, p := range [2]*uint64{&prev[0], &prev[1]} {
		var v uint64
		for i := wa - 1; i >= 0; i-- {
			v = v<<8 | uint64(c.data[c.off+i])
		}
		*p ^= v
		c.off += wa
		wa = wb
	}
	return math.Float64frombits(prev[0]), math.Float64frombits(prev[1])
}

// grow adds n bytes to the canonical size of what a compact walk has
// decoded and fails the cursor once it passes maxBodyBytes — the bound
// inflate holds a gzip body to, here held before anything is allocated
// for the bytes counted.
func (c *cursor) grow(n int64) bool {
	c.decoded += n
	if c.decoded > maxBodyBytes {
		c.fail(fmt.Errorf("darshan: body exceeds %d byte limit", maxBodyBytes))
	}
	return c.err == nil
}

// span steps over one length-prefixed string under the string limit and
// returns its bytes where they lie (nil once the cursor has failed).
func (c *cursor) span() []byte {
	n := c.u32()
	if c.err != nil {
		return nil
	}
	if n > maxStringLen {
		c.fail(fmt.Errorf("darshan: string length %d exceeds limit", n))
		return nil
	}
	if !c.need(int(n)) {
		return nil
	}
	b := c.data[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

// str decodes one string through the state's intern table.
func (c *cursor) str() string {
	b := c.span()
	if len(b) == 0 {
		return ""
	}
	return c.st.internString(b)
}

// dxtList decodes one DXT event list, reusing the capacity of prev when
// it suffices. An empty list decodes to nil, matching the encoder.
func (c *cursor) dxtList(prev []DXTEvent) []DXTEvent {
	n := c.u32()
	if !c.checkCount(uint64(n), maxDXTPerList, dxtEventLen, "DXT list") || n == 0 {
		return nil
	}
	var out []DXTEvent
	if cap(prev) >= int(n) {
		out = prev[:n]
	} else {
		out = make([]DXTEvent, n)
	}
	for i := range out {
		ev := &out[i]
		ev.Start = c.f64()
		ev.End = c.f64()
		ev.Offset = c.i64()
		ev.Length = c.i64()
	}
	if c.err != nil {
		return nil
	}
	return out
}

// compactDXT decodes one DXT list of appendCompactDXT's, reusing the
// capacity of prev when it suffices. Its count is held to the limit, to
// the bytes left and to maxBodyBytes before anything is allocated. An
// empty list decodes to nil, matching the encoder. A list that fails part
// way — its events are not fixed-width, so the count does not vouch for
// them — comes back empty with the storage it was given, for a scratch
// record to keep.
func (c *cursor) compactDXT(prev []DXTEvent) []DXTEvent {
	n := c.uvarint()
	if !c.checkCount(n, maxDXTPerList, minCompactEventLen, "DXT list") || !c.grow(int64(n)*dxtEventLen) || n == 0 {
		return nil
	}
	var out []DXTEvent
	if uint64(cap(prev)) >= n {
		out = prev[:n]
	} else {
		out = make([]DXTEvent, n)
	}
	var t [2]uint64
	var end, length int64
	for i := range out {
		ev := &out[i]
		ev.Start, ev.End = c.pair(&t)
		ev.Offset = end + c.varint()
		ev.Length = length + c.varint()
		end, length = ev.Offset+ev.Length, ev.Length
	}
	if c.err != nil {
		return out[:0]
	}
	return out
}

// header decodes the fixed job fields that open a body.
func (c *cursor) header(j *Job) {
	j.JobID = c.u64()
	j.UID = c.u32()
	j.User = c.str()
	j.Exe = c.str()
	j.NProcs = int32(c.u32())
	j.Start = c.i64()
	j.End = c.i64()
	j.Runtime = c.f64()
}

// record decodes the record at the cursor into r — everything but the
// path, whose place in the body it returns — reusing the capacity of
// prevReads and prevWrites for the DXT lists. It is the one record walk:
// decodeBody and inspectBody both call it, so a record is malformed for
// one exactly when it is for the other, with the same error. walkBody
// takes its steps without it (see there).
func (c *cursor) record(r *FileRecord, prevReads, prevWrites []DXTEvent) (path pathSpan, ok bool) {
	m := c.u32()
	if m > math.MaxUint8 {
		c.noncanon = true // Module is a uint8: the value is narrowed here
	}
	r.Module = Module(m)
	n := c.u32()
	if c.err == nil && n > maxStringLen {
		c.fail(fmt.Errorf("darshan: string length %d exceeds limit", n))
	}
	if !c.need(int(n) + recordTailLen) {
		return pathSpan{}, false
	}
	path = pathSpan{off: c.off, n: int(n)}
	t := c.data[c.off+int(n):][:recordTailLen]
	c.off += int(n) + recordTailLen
	le := binary.LittleEndian
	r.Rank = int32(le.Uint32(t))
	cc := &r.C
	cc.Opens = int64(le.Uint64(t[4:]))
	cc.Closes = int64(le.Uint64(t[12:]))
	cc.Seeks = int64(le.Uint64(t[20:]))
	cc.Stats = int64(le.Uint64(t[28:]))
	cc.Reads = int64(le.Uint64(t[36:]))
	cc.Writes = int64(le.Uint64(t[44:]))
	cc.BytesRead = int64(le.Uint64(t[52:]))
	cc.BytesWritten = int64(le.Uint64(t[60:]))
	cc.OpenStart = math.Float64frombits(le.Uint64(t[68:]))
	cc.OpenEnd = math.Float64frombits(le.Uint64(t[76:]))
	cc.ReadStart = math.Float64frombits(le.Uint64(t[84:]))
	cc.ReadEnd = math.Float64frombits(le.Uint64(t[92:]))
	cc.WriteStart = math.Float64frombits(le.Uint64(t[100:]))
	cc.WriteEnd = math.Float64frombits(le.Uint64(t[108:]))
	cc.CloseStart = math.Float64frombits(le.Uint64(t[116:]))
	cc.CloseEnd = math.Float64frombits(le.Uint64(t[124:]))
	r.DXTReads = c.dxtList(prevReads)
	r.DXTWrites = c.dxtList(prevWrites)
	return path, c.err == nil
}

// decodeBody decodes the body at the cursor into j. With summarize it
// also returns the job's Summary, taken in the same record loop — what
// Summarize(j) would answer without a second walk; without, the zero
// Summary.
func (c *cursor) decodeBody(j *Job, summarize bool) (s Summary) {
	nRec, ok := c.decodeHead(j, minRecordLen)
	if !ok {
		return
	}
	if summarize {
		s = headSummary(j)
	}
	if nRec == 0 {
		if j.Records != nil {
			j.Records = j.Records[:0]
		}
		return
	}
	if cap(j.Records) >= int(nRec) {
		j.Records = j.Records[:nRec]
	} else {
		j.Records = make([]FileRecord, nRec)
	}
	// Record paths are cut from one string the job owns: the loop notes
	// where each path sits in the body, and the paths are copied out
	// together once their total size is known.
	c.st.paths = c.st.paths[:0]
	pathBytes := 0
	for i := range j.Records {
		r := &j.Records[i]
		sp, ok := c.record(r, r.DXTReads, r.DXTWrites)
		if !ok {
			return
		}
		if summarize {
			s.addRecord(r, i, j.Runtime)
		}
		c.st.paths = append(c.st.paths, sp)
		pathBytes += sp.n
	}
	var arena strings.Builder
	arena.Grow(pathBytes)
	for i, sp := range c.st.paths {
		arena.Write(c.data[sp.off : sp.off+sp.n])
		all := arena.String()
		j.Records[i].Path = all[len(all)-sp.n:]
	}
	return s
}

// decodeHead decodes what opens every body — the job fields and the
// metadata — into j and returns the record count, checked against its
// limit and, at minRecord bytes a record, the bytes left.
func (c *cursor) decodeHead(j *Job, minRecord int) (nRec uint32, ok bool) {
	c.header(j)

	nMeta := c.u32()
	if !c.checkCount(uint64(nMeta), maxMetaPairs, minMetaPairLen, "metadata pair") {
		return 0, false
	}
	if nMeta == 0 {
		j.Metadata = nil
	} else {
		if j.Metadata == nil {
			j.Metadata = make(map[string]string, nMeta)
		} else {
			clear(j.Metadata)
		}
		prev := ""
		for i := uint32(0); i < nMeta; i++ {
			k := c.str()
			v := c.str()
			if c.err != nil {
				return 0, false
			}
			// The encoder emits each key once, sorted: a repeated or
			// descending key re-encodes differently.
			if i > 0 && k <= prev {
				c.noncanon = true
			}
			prev = k
			j.Metadata[k] = v
		}
	}

	nRec = c.u32()
	return nRec, c.checkCount(uint64(nRec), maxRecords, minRecord, "record")
}

// decodeCompact is decodeBody for a compact body: the same head, then
// the records of appendCompactBody's, decoded into j with the same
// storage reuse and, with summarize, summarized in the same loop. The
// record steps are written out here and again in inspectCompact, in the
// same order and with the same checks, as walkBody's are beside
// record's.
func (c *cursor) decodeCompact(j *Job, summarize bool) (s Summary) {
	nRec, ok := c.decodeHead(j, minCompactRecordLen)
	if !ok || !c.grow(int64(c.off)+int64(nRec)*canonRecordLen) {
		return
	}
	if summarize {
		s = headSummary(j)
	}
	if nRec == 0 {
		if j.Records != nil {
			j.Records = j.Records[:0]
		}
		return
	}
	if cap(j.Records) >= int(nRec) {
		j.Records = j.Records[:nRec]
	} else {
		j.Records = make([]FileRecord, nRec)
	}
	// Each path is noted as the bytes it shares with the one before and
	// where the rest of it lies; once the walk has held their total to
	// maxBodyBytes they are assembled into one string the job owns.
	st := c.st
	st.paths = st.paths[:0]
	pathBytes, prevLen := 0, uint64(0)
	var v [9]int64         // rank, then the counters
	var times [4][2]uint64 // the previous record's timestamps
	for i := range j.Records {
		r := &j.Records[i]
		r.Module = Module(c.u8())
		shared, n := c.uvarint(), c.uvarint()
		if c.err == nil && shared > prevLen {
			c.fail(fmt.Errorf("darshan: path shares %d bytes with a previous path of %d", shared, prevLen))
		}
		if c.err == nil && n > maxStringLen-shared {
			c.fail(fmt.Errorf("darshan: path length %d+%d exceeds limit", shared, n))
		}
		if !c.need(int(n)) || !c.grow(int64(shared+n)) {
			return
		}
		st.paths = append(st.paths, pathSpan{off: c.off, n: int(n), shared: int(shared)})
		c.off += int(n)
		prevLen = shared + n
		pathBytes += int(prevLen)
		for k := range v {
			v[k] = c.varint()
		}
		if c.err == nil && int64(int32(v[0])) != v[0] {
			c.fail(fmt.Errorf("darshan: rank %d outside int32", v[0]))
		}
		r.Rank = int32(v[0])
		cc := &r.C
		cc.Opens, cc.Closes, cc.Seeks, cc.Stats = v[1], v[2], v[3], v[4]
		cc.Reads, cc.Writes, cc.BytesRead, cc.BytesWritten = v[5], v[6], v[7], v[8]
		c.times(cc, &times)
		r.DXTReads = c.compactDXT(r.DXTReads)
		r.DXTWrites = c.compactDXT(r.DXTWrites)
		if c.err != nil {
			return
		}
		if summarize {
			s.addRecord(r, i, j.Runtime)
		}
	}
	var arena strings.Builder
	arena.Grow(pathBytes)
	prev := ""
	for i, sp := range st.paths {
		start := arena.Len()
		arena.WriteString(prev[:sp.shared]) // no growth: the bytes are the builder's own
		arena.Write(c.data[sp.off : sp.off+sp.n])
		prev = arena.String()[start:]
		j.Records[i].Path = prev
	}
	return s
}

// inspectBody is decodeBody for a reader that wants the funnel's view of
// the trace and not the trace: the same cursor, counts, limits and
// record walk, so a body is malformed for it exactly when it is for
// decodeBody, but every record is decoded into one scratch record,
// validated there in Validate's order (header first, first fault
// wins) and weighed; paths and metadata are stepped over. Nothing it
// allocates grows with the trace.
func (c *cursor) inspectBody() Summary {
	var hdr Job
	nRec, ok := c.inspectHead(&hdr, minRecordLen)
	if !ok {
		return Summary{}
	}
	s := headSummary(&hdr)
	st := c.st
	var r FileRecord
	for i := 0; i < int(nRec); i++ {
		if _, ok := c.record(&r, st.dxtReads, st.dxtWrites); !ok {
			return Summary{}
		}
		if cap(r.DXTReads) > cap(st.dxtReads) {
			st.dxtReads = r.DXTReads[:0]
		}
		if cap(r.DXTWrites) > cap(st.dxtWrites) {
			st.dxtWrites = r.DXTWrites[:0]
		}
		s.addRecord(&r, i, hdr.Runtime)
	}
	return s
}

// inspectHead is decodeHead for a walk that keeps no job: the job fields
// go to hdr, the metadata is stepped over.
func (c *cursor) inspectHead(hdr *Job, minRecord int) (nRec uint32, ok bool) {
	c.header(hdr)

	nMeta := c.u32()
	if !c.checkCount(uint64(nMeta), maxMetaPairs, minMetaPairLen, "metadata pair") {
		return 0, false
	}
	for i := uint32(0); i < nMeta; i++ {
		c.span()
		c.span()
		if c.err != nil {
			return 0, false
		}
	}

	nRec = c.u32()
	return nRec, c.checkCount(uint64(nRec), maxRecords, minRecord, "record")
}

// inspectCompact is inspectBody for a compact body: decodeCompact's
// steps, checks and order, into one scratch record validated and weighed
// where it stands. Of each path it keeps only the length, which is all
// the next record's shared prefix is checked against; nothing it
// allocates grows with the trace.
func (c *cursor) inspectCompact() Summary {
	var hdr Job
	nRec, ok := c.inspectHead(&hdr, minCompactRecordLen)
	if !ok || !c.grow(int64(c.off)+int64(nRec)*canonRecordLen) {
		return Summary{}
	}
	s := headSummary(&hdr)
	st := c.st
	var r FileRecord
	prevLen := uint64(0)
	var v [9]int64
	var times [4][2]uint64
	for i := 0; i < int(nRec); i++ {
		r.Module = Module(c.u8())
		shared, n := c.uvarint(), c.uvarint()
		if c.err == nil && shared > prevLen {
			c.fail(fmt.Errorf("darshan: path shares %d bytes with a previous path of %d", shared, prevLen))
		}
		if c.err == nil && n > maxStringLen-shared {
			c.fail(fmt.Errorf("darshan: path length %d+%d exceeds limit", shared, n))
		}
		if !c.need(int(n)) || !c.grow(int64(shared+n)) {
			return Summary{}
		}
		c.off += int(n)
		prevLen = shared + n
		for k := range v {
			v[k] = c.varint()
		}
		if c.err == nil && int64(int32(v[0])) != v[0] {
			c.fail(fmt.Errorf("darshan: rank %d outside int32", v[0]))
		}
		r.Rank = int32(v[0])
		cc := &r.C
		cc.Opens, cc.Closes, cc.Seeks, cc.Stats = v[1], v[2], v[3], v[4]
		cc.Reads, cc.Writes, cc.BytesRead, cc.BytesWritten = v[5], v[6], v[7], v[8]
		c.times(cc, &times)
		r.DXTReads = c.compactDXT(st.dxtReads)
		r.DXTWrites = c.compactDXT(st.dxtWrites)
		if cap(r.DXTReads) > cap(st.dxtReads) {
			st.dxtReads = r.DXTReads[:0]
		}
		if cap(r.DXTWrites) > cap(st.dxtWrites) {
			st.dxtWrites = r.DXTWrites[:0]
		}
		if c.err != nil {
			return Summary{}
		}
		s.addRecord(&r, i, hdr.Runtime)
	}
	return s
}

// walkBody is decodeBody for a reader that wants to know whether the body
// decodes, and to what canonical verdict, and not the trace: the same
// cursor methods make the same count, limit and truncation checks in the
// same order — so a body is malformed for it exactly when it is for
// decodeBody, with the same error, and non-canonical exactly when it is
// there — but no field is kept, no string interned and the DXT events
// are stepped over. It returns the record count and allocates nothing.
// The record steps are record's, written out rather than shared: a
// shared helper is a call per record the decoder does not inline, ≈ 7 %
// of a warm decode (FuzzWalkCanonical holds the two to one answer).
func (c *cursor) walkBody() (records int) {
	c.u64()  // JobID
	c.u32()  // UID
	c.span() // User
	c.span() // Exe
	c.u32()  // NProcs
	c.u64()  // Start
	c.u64()  // End
	c.u64()  // Runtime

	nMeta := c.u32()
	if !c.checkCount(uint64(nMeta), maxMetaPairs, minMetaPairLen, "metadata pair") {
		return 0
	}
	var prev []byte
	for i := uint32(0); i < nMeta; i++ {
		k := c.span()
		c.span()
		if c.err != nil {
			return 0
		}
		if i > 0 && string(k) <= string(prev) {
			c.noncanon = true
		}
		prev = k
	}

	nRec := c.u32()
	if !c.checkCount(uint64(nRec), maxRecords, minRecordLen, "record") {
		return 0
	}
	for i := uint32(0); i < nRec; i++ {
		if c.u32() > math.MaxUint8 { // module
			c.noncanon = true
		}
		n := c.u32() // path length
		if c.err == nil && n > maxStringLen {
			c.fail(fmt.Errorf("darshan: string length %d exceeds limit", n))
		}
		if !c.need(int(n) + recordTailLen) {
			return 0
		}
		c.off += int(n) + recordTailLen
		for range 2 { // the DXT read and write lists
			if m := c.u32(); c.checkCount(uint64(m), maxDXTPerList, dxtEventLen, "DXT list") {
				c.off += int(m) * dxtEventLen
			}
		}
		if c.err != nil {
			return 0
		}
	}
	return int(nRec)
}

// end reports how the walk over the body finished: the first cursor
// failure, or the bytes left over after a body that parsed.
func (c *cursor) end() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.data) {
		return fmt.Errorf("darshan: %d trailing bytes after body", len(c.data)-c.off)
	}
	return nil
}

// DecodeInto parses a binary-log-encoded job from data into j, reusing
// j's Records slice, DXT lists and Metadata map where their capacity
// suffices — the warm ingest path decodes repeatedly into the same Job
// with zero allocations. The decoded job never aliases data (strings
// are copied or interned), so callers may recycle the input buffer
// immediately. On error j's contents are unspecified.
//
// It validates the container framing but not the semantic content;
// callers run Validate separately so that corruption statistics can be
// collected (the paper's step 1).
func DecodeInto(j *Job, data []byte) error {
	_, err := DecodeCanonical(j, data)
	return err
}

// DecodeCanonical is DecodeInto that also reports, as a by-product of
// the same pass, whether data is byte for byte the canonical encoding of
// the job it decoded — what MarshalBinary(j) would write. That holds
// when the header carries FormatVersion and no flag bit (raw body, no
// prelude), the metadata keys are strictly ascending, the body is
// consumed exactly (anything else is a decode error) and no field was
// narrowed on the way in (a module value above 255 decodes, but
// re-encodes as its low byte). The verdict is conservative: it may be
// false for an input that happens to re-encode identically, never true
// for one that does not — callers use it to content-address the input
// without re-encoding.
func DecodeCanonical(j *Job, data []byte) (canonical bool, err error) {
	st := decodeStatePool.Get().(*decodeState)
	defer putDecodeState(st)
	canonical, _, err = st.decode(j, data, false)
	return canonical, err
}

// DecodeSummarized is DecodeInto that also returns the decoded job's
// Summary, taken in the decoder's record walk: what Summarize(j) answers,
// without a second walk over the records.
func DecodeSummarized(j *Job, data []byte) (Summary, error) {
	st := decodeStatePool.Get().(*decodeState)
	defer putDecodeState(st)
	_, s, err := st.decode(j, data, true)
	return s, err
}

// WalkCanonical is DecodeCanonical without the job, for a raw
// current-version body — the header MarshalBinary writes, FormatVersion
// with no flag bit: it walks the body through the decoder's checks
// (walkBody) and returns what DecodeCanonical would — its error, its
// verdict and, as records, len(j.Records) — allocating nothing. Any other
// input (a file with a prelude, a flagged or compressed body, a foreign
// or short header) is never canonical, and only the decoder can say whether
// it is readable: WalkCanonical answers false, 0 and no error without
// reading past the header.
func WalkCanonical(data []byte) (canonical bool, records int, err error) {
	if len(data) < headerLen || [4]byte(data[:4]) != Magic ||
		binary.LittleEndian.Uint16(data[4:6]) != FormatVersion || binary.LittleEndian.Uint16(data[6:8]) != 0 {
		return false, 0, nil
	}
	c := cursor{data: data[headerLen:]}
	records = c.walkBody()
	if err := c.end(); err != nil {
		return false, 0, err
	}
	return !c.noncanon, records, nil
}

// ErrPreludeMismatch marks a file whose prelude is not the summary of its
// body: the file is malformed, and every read of the body
// says so. No file WriteBinary wrote is.
var ErrPreludeMismatch = errors.New("darshan: prelude is not the summary of the body")

// check holds the summary of a body that was read in full to what the
// container claimed of it.
func (ct *container) check(got Summary) error {
	if !ct.claimed || ct.claim.equal(got) {
		return nil
	}
	return fmt.Errorf("%w: it claims %s, the body holds %s", ErrPreludeMismatch, ct.claim.describe(), got.describe())
}

// decode is DecodeCanonical that, with summarize, also returns the
// decoded job's Summary. The summary is taken in decodeBody's record
// loop whenever it is wanted or the container claims one to check it
// against; an unclaimed body decoded without summarize is not summarized.
func (st *decodeState) decode(j *Job, data []byte, summarize bool) (canonical bool, s Summary, err error) {
	ct, err := st.open(data)
	if err != nil {
		return false, Summary{}, err
	}
	c, err := st.body(data, &ct)
	if err != nil {
		return false, Summary{}, err
	}
	if ct.version == fileFormatVersion {
		s = c.decodeCompact(j, summarize || ct.claimed)
	} else {
		s = c.decodeBody(j, summarize || ct.claimed)
	}
	if err := c.end(); err != nil {
		return false, Summary{}, err
	}
	if err := ct.check(s); err != nil {
		return false, Summary{}, err
	}
	return ct.version == FormatVersion && ct.flags == 0 && !c.noncanon, s, nil
}

// container is an encoded trace taken apart and checked, nothing of it
// inflated: where the body starts and how it is stored and, of a
// version-3 or -4 file, what the prelude claims of it.
type container struct {
	version, flags uint16
	bodyOff        int
	// claim is the prelude's summary; claimed says there is one to hold
	// the body to: a prelude, written under this reader's summaryRules.
	// Under any other the claim answers a question this reader does not
	// ask, and the file is read as one without a prelude.
	claim   Summary
	claimed bool
}

// open is where every read of an encoded trace starts — the decoder's
// and the funnel's alike, so that one is refused what the other is. It
// checks the header and, of a version-3 or -4 file, parses the prelude
// and verifies both checksums: a truncated, torn or bit-flipped file
// fails here, before anything is inflated or decoded.
func (st *decodeState) open(data []byte) (ct container, err error) {
	if len(data) < 4 {
		return ct, fmt.Errorf("darshan: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if [4]byte(data[:4]) != Magic {
		return ct, ErrBadMagic
	}
	if len(data) < headerLen {
		return ct, fmt.Errorf("darshan: reading header: %w", io.ErrUnexpectedEOF)
	}
	ct.version = binary.LittleEndian.Uint16(data[4:6])
	ct.flags = binary.LittleEndian.Uint16(data[6:8])
	ct.bodyOff = headerLen
	var want uint16 // the one flag word a file with a prelude may carry
	switch ct.version {
	case FormatVersion:
		return ct, nil
	case fileFormatVersion:
	case gzipFileVersion:
		want = flagGzip
	default:
		return ct, fmt.Errorf("%w: %d", ErrBadVersion, ct.version)
	}
	if ct.flags != want {
		return ct, fmt.Errorf("darshan: version %d with flag word %#x, want %#x", ct.version, ct.flags, want)
	}
	c := cursor{data: data, off: headerLen, st: st}
	rules := c.u8()
	var claim Summary
	claim.User = c.str()
	claim.App = c.str()
	claim.Weight = c.i64()
	kind := CorruptionKind(c.u8())
	record := int(int32(c.u32()))
	detail := c.span()
	bodySum := c.u32()
	sum := c.u32()
	if c.err != nil {
		return ct, fmt.Errorf("darshan: reading prelude: %w", c.err)
	}
	if crc32.ChecksumIEEE(data[:c.off-4]) != sum {
		return ct, errors.New("darshan: prelude checksum mismatch")
	}
	if crc32.ChecksumIEEE(data[c.off:]) != bodySum {
		return ct, errors.New("darshan: body checksum mismatch")
	}
	ct.bodyOff = c.off
	if rules == summaryRules {
		if kind != CorruptNone {
			claim.Invalid = &ValidationError{Kind: kind, Record: record, Detail: string(detail)}
		}
		ct.claim, ct.claimed = claim, true
	}
	return ct, nil
}

// body returns a cursor at the start of the trace's body: where it lies
// in data or, when the container stores it compressed, inflated into the
// state's arena.
func (st *decodeState) body(data []byte, ct *container) (cursor, error) {
	body := data[ct.bodyOff:]
	if ct.flags&flagGzip != 0 {
		var err error
		if body, err = st.inflate(body); err != nil {
			return cursor{}, err
		}
	}
	return cursor{data: body, st: st}, nil
}

// UnmarshalBinary parses a binary-log-encoded job.
func UnmarshalBinary(data []byte) (*Job, error) {
	j := new(Job)
	if err := DecodeInto(j, data); err != nil {
		return nil, err
	}
	return j, nil
}

// fileBufPool holds whole-file staging buffers, so repeated file decodes
// do not reallocate.
var fileBufPool = sync.Pool{New: func() any { return new([]byte) }}

// fileBytes reads all of f into a size-hinted pooled buffer and hands it
// to fn; the buffer returns to the pool when fn does, so fn must keep
// none of it. It is how every .mosd file is read — whole (readBinaryFile)
// or for the funnel alone (InspectFile).
func fileBytes(f *os.File, fn func(data []byte) error) error {
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	if size > maxBodyBytes {
		return fmt.Errorf("darshan: %s: file exceeds %d byte limit", f.Name(), maxBodyBytes)
	}
	bp := fileBufPool.Get().(*[]byte)
	buf := *bp
	if int64(cap(buf)) < size {
		buf = make([]byte, size)
	} else {
		buf = buf[:size]
	}
	if _, err = io.ReadFull(f, buf); err == nil {
		err = fn(buf)
	}
	if cap(buf) <= maxPooledBuf {
		*bp = buf[:0]
	} else {
		*bp = nil
	}
	fileBufPool.Put(bp)
	return err
}

// readBinaryFile decodes one .mosd file into j and, with summarize,
// returns its Summary.
func readBinaryFile(j *Job, f *os.File, summarize bool) (s Summary, err error) {
	st := decodeStatePool.Get().(*decodeState)
	defer putDecodeState(st)
	err = fileBytes(f, func(data []byte) (err error) {
		_, s, err = st.decode(j, data, summarize)
		return err
	})
	return s, err
}
