package darshan

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"unsafe"
)

// stdlibInflate is the reference the inflater is held to: compress/gzip
// reading one member, with the same body limit, and nothing left behind
// it. It is what decodeState.inflate was before the kernel replaced it.
func stdlibInflate(src []byte) ([]byte, error) {
	br := bytes.NewReader(src)
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, err
	}
	zr.Multistream(false)
	body, err := io.ReadAll(io.LimitReader(zr, maxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxBodyBytes {
		return nil, errors.New("body exceeds limit")
	}
	if br.Len() != 0 {
		return nil, errors.New("trailing bytes after the member")
	}
	return body, nil
}

// agree inflates member both ways, fails the test on any difference in
// verdict or output, and reports whether the member was accepted.
func agree(tb testing.TB, name string, member []byte) bool {
	tb.Helper()
	want, wantErr := stdlibInflate(member)
	var st decodeState
	got, err := st.inflate(member)
	if (err == nil) != (wantErr == nil) {
		tb.Fatalf("%s: inflater err = %v, compress/gzip err = %v", name, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		tb.Fatalf("%s: inflater and compress/gzip accept but disagree on the body (%d vs %d bytes)", name, len(got), len(want))
	}
	return err == nil
}

// ---- hand-built deflate streams ----

// bitWriter packs deflate's two kinds of field: plain values least
// significant bit first, Huffman codewords most significant bit first.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint32, n uint) {
	w.acc |= uint64(v) << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
}

func (w *bitWriter) code(c uint16, n uint8) {
	w.bits(uint32(bits.Reverse16(c)>>(16-n)), uint(n))
}

// bytes pads the last byte with zeros and returns the stream.
func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
	return w.buf
}

// huffCode is a canonical Huffman code: symbol s is written as the
// lens[s]-bit codeword codes[s].
type huffCode struct {
	lens  []uint8
	codes []uint16
}

func canonicalCode(lens []uint8) huffCode {
	hc := huffCode{lens: lens, codes: make([]uint16, len(lens))}
	code := uint16(0)
	for l := uint8(1); l <= maxCodeLen; l++ {
		for s, sl := range lens {
			if sl == l {
				hc.codes[s] = code
				code++
			}
		}
		code <<= 1
	}
	return hc
}

func (w *bitWriter) sym(hc huffCode, s int) { w.code(hc.codes[s], hc.lens[s]) }

func fixedCodes() (lit, dist huffCode) {
	lens := make([]uint8, maxLitLenSyms+maxDistSyms)
	for i := range lens {
		lens[i] = fixedCodeLen(i)
	}
	return canonicalCode(lens[:maxLitLenSyms]), canonicalCode(lens[maxLitLenSyms:])
}

// dynamicHeader writes a dynamic block header declaring exactly these
// literal/length and distance code lengths. The code-length code is the
// plainest complete one: symbols 0-15 at four bits each, no repeats.
func (w *bitWriter) dynamicHeader(final bool, litLens, distLens []uint8) {
	w.blockHeader(final, 2)
	w.bits(uint32(len(litLens)-257), 5)
	w.bits(uint32(len(distLens)-1), 5)
	w.bits(numPreSyms-4, 4)
	for _, s := range codeOrder {
		if s < 16 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	for _, lens := range [][]uint8{litLens, distLens} {
		for _, l := range lens {
			w.code(uint16(l), 4)
		}
	}
}

func (w *bitWriter) blockHeader(final bool, typ uint32) {
	f := uint32(0)
	if final {
		f = 1
	}
	w.bits(f, 1)
	w.bits(typ, 2)
}

// stored writes one stored block.
func (w *bitWriter) stored(final bool, data []byte) {
	w.blockHeader(final, 0)
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
	w.bits(uint32(len(data)), 16)
	w.bits(uint32(^uint16(len(data))), 16)
	w.buf = append(w.buf, data...)
}

// member wraps a deflate stream that inflates to body in a minimal gzip
// member with a correct trailer.
func member(deflate, body []byte) []byte {
	m := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}
	m = append(m, deflate...)
	m = binary.LittleEndian.AppendUint32(m, crc32.ChecksumIEEE(body))
	return binary.LittleEndian.AppendUint32(m, uint32(len(body)))
}

// gzipAt compresses body with compress/gzip at the given level.
func gzipAt(tb testing.TB, level int, body []byte) []byte {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := zw.Write(body); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// skewedLens is a complete code whose lengths run 1, 2, ... 14, 15, 15
// over the given symbols: most of its codewords are longer than either
// primary table index.
func skewedLens(n int, syms ...int) []uint8 {
	lens := make([]uint8, n)
	for i, s := range syms {
		lens[s] = uint8(min(i+1, len(syms)-1))
	}
	return lens
}

// validMembers returns accepted members that between them reach every
// part of the decoder, keyed by what each is for.
func validMembers(tb testing.TB) map[string][]byte {
	// Small bodies keep the fuzzer quick: what matters is the shape of
	// the stream, and the hand-written ones below supply the extremes.
	rng := rand.New(rand.NewSource(14))
	var trace []byte
	for len(trace) < 4<<10 {
		var err error
		if trace, err = appendBody(trace, randomJob(rng)); err != nil {
			tb.Fatal(err)
		}
	}
	out := map[string][]byte{
		"HuffmanOnly":        gzipAt(tb, gzip.HuffmanOnly, trace),
		"NoCompression":      gzipAt(tb, gzip.NoCompression, trace),
		"BestSpeed":          gzipAt(tb, gzip.BestSpeed, trace),
		"DefaultCompression": gzipAt(tb, gzip.DefaultCompression, trace),
		"BestCompression":    gzipAt(tb, gzip.BestCompression, trace),
		"empty body":         gzipAt(tb, gzip.DefaultCompression, nil),
		"distance-1 run":     gzipAt(tb, gzip.DefaultCompression, make([]byte, 10000)),
	}

	// body is what the stream written so far inflates to; match extends
	// it the way a decoder must, byte by byte from dist back.
	var body []byte
	match := func(length, dist int) {
		for ; length > 0; length-- {
			body = append(body, body[len(body)-dist])
		}
	}

	// A fixed-Huffman block: literals, then an overlapping match.
	lit, dist := fixedCodes()
	var w bitWriter
	w.blockHeader(true, 1)
	for _, c := range []byte("abc") {
		w.sym(lit, int(c))
		body = append(body, c)
	}
	w.sym(lit, 260) // length 6
	w.sym(dist, 2)  // distance 3
	match(6, 3)
	w.sym(lit, endOfBlock)
	out["fixed block"] = member(w.bytes(), body)

	// Codes longer than the primary tables: a skewed literal/length code
	// over 16 symbols and a skewed distance code over 16 symbols, so
	// that both second-level lookups run.
	litSyms := []int{'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', endOfBlock, 257}
	distSyms := []int{15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	lit, dist = canonicalCode(skewedLens(258, litSyms...)), canonicalCode(skewedLens(16, distSyms...))
	w, body = bitWriter{}, nil
	w.dynamicHeader(true, lit.lens, dist.lens)
	for i := 0; i < 40; i++ {
		c := litSyms[i%14]
		w.sym(lit, c)
		body = append(body, byte(c))
	}
	for _, d := range []int{0, 1, 2, 3} { // the 13- to 15-bit distance codewords
		w.sym(lit, 257) // length 3, a 15-bit codeword
		w.sym(dist, d)
		match(3, d+1)
	}
	w.sym(lit, endOfBlock)
	out["long codes"] = member(w.bytes(), body)

	// The farthest and the longest match deflate has: eight literals
	// repeated out to 32 KB by length-258 matches eight back, then two
	// matches 32 768 back.
	lit, dist = fixedCodes()
	w, body = bitWriter{}, nil
	w.blockHeader(true, 1)
	for _, c := range []byte("abcdefgh") {
		w.sym(lit, int(c))
		body = append(body, c)
	}
	for len(body) < 32768+300 {
		w.sym(lit, 285)
		w.sym(dist, 5)
		w.bits(1, 1) // 7 + 1 = 8
		match(258, 8)
	}
	for i := 0; i < 2; i++ {
		w.sym(lit, 285)
		w.sym(dist, 29)
		w.bits(8191, 13) // 24577 + 8191 = 32768
		match(258, 32768)
	}
	w.sym(lit, endOfBlock)
	out["far and long matches"] = member(w.bytes(), body)

	// A stored block between two compressed ones.
	w, body = bitWriter{}, nil
	w.blockHeader(false, 1)
	w.sym(lit, 'x')
	w.sym(lit, endOfBlock)
	w.stored(false, []byte("stored bytes"))
	w.blockHeader(true, 1)
	w.sym(lit, 'y')
	w.sym(lit, endOfBlock)
	out["stored between compressed"] = member(w.bytes(), []byte("xstored bytesy"))

	// A degenerate distance code: one codeword, one bit.
	lit = canonicalCode(skewedLens(258, 'x', endOfBlock, 257))
	dist = canonicalCode([]uint8{1})
	w = bitWriter{}
	w.dynamicHeader(true, lit.lens, dist.lens)
	w.sym(lit, 'x')
	w.sym(lit, 257)
	w.sym(dist, 0)
	w.sym(lit, endOfBlock)
	out["single distance code"] = member(w.bytes(), []byte("xxxx"))

	for name, m := range out {
		if !agree(tb, name, m) {
			tb.Fatalf("%s: seed member is rejected", name)
		}
	}
	return out
}

func TestInflateValidMembers(t *testing.T) {
	members := validMembers(t)
	// The seeds are what their names say.
	if typ := members["fixed block"][10] >> 1 & 3; typ != 1 {
		t.Errorf("fixed block seed has block type %d", typ)
	}
	var st decodeState
	if _, err := st.inflate(members["long codes"]); err != nil {
		t.Fatal(err)
	}
	subs := func(table []uint32, rootBits int) (n int) {
		for _, e := range table[:1<<rootBits] {
			if e&entSub != 0 {
				n++
			}
		}
		return n
	}
	if subs(st.z.lt[:], litLenBits) == 0 || subs(st.z.dt[:], distBits) == 0 {
		t.Error("long codes seed built no subtable")
	}
}

// TestInflateOptionalHeaderFields: FEXTRA, FNAME, FCOMMENT and FHCRC are
// skipped and verified as compress/gzip does it.
func TestInflateOptionalHeaderFields(t *testing.T) {
	body := []byte("header fields")
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Extra = []byte{1, 2, 3, 4, 5}
	zw.Name = "trace.mosd"
	zw.Comment = "a comment"
	zw.Write(body)
	zw.Close()
	plain := buf.Bytes()
	if !agree(t, "extra+name+comment", plain) {
		t.Fatal("member with optional fields rejected")
	}

	// The same member with a header CRC, good and bad.
	deflateAt := 10 + 2 + len(zw.Extra) + len(zw.Name) + 1 + len(zw.Comment) + 1
	hdr := append([]byte(nil), plain[:deflateAt]...)
	hdr[3] |= 1 << 1
	withCRC := func(sum uint16) []byte {
		m := binary.LittleEndian.AppendUint16(append([]byte(nil), hdr...), sum)
		return append(m, plain[deflateAt:]...)
	}
	good := uint16(crc32.ChecksumIEEE(hdr))
	if !agree(t, "good FHCRC", withCRC(good)) {
		t.Error("member with a correct header CRC rejected")
	}
	if agree(t, "bad FHCRC", withCRC(good^1)) {
		t.Error("member with a wrong header CRC accepted")
	}

	// A name with no terminator in its first 512 bytes is refused, one
	// that ends on the 512th is not.
	named := func(n int) []byte {
		m := []byte{0x1f, 0x8b, 8, 1 << 3, 0, 0, 0, 0, 0, 0xff}
		m = append(m, bytes.Repeat([]byte{'n'}, n)...)
		m = append(m, 0)
		return append(m, plain[deflateAt:]...)
	}
	if !agree(t, "511-byte name", named(511)) {
		t.Error("511-byte name rejected")
	}
	if agree(t, "512-byte name", named(512)) {
		t.Error("512-byte name accepted")
	}
}

// TestInflateHostileMembers: every member here is refused, by the
// inflater and by compress/gzip alike, and by the inflater for the
// reason given (nil: any).
func TestInflateHostileMembers(t *testing.T) {
	good := validMembers(t)["BestSpeed"]
	patch := func(fn func(m []byte) []byte) []byte { return fn(append([]byte(nil), good...)) }
	trailer := len(good) - gzipTrailerLen
	isize := binary.LittleEndian.Uint32(good[trailer+4:])
	lit, dist := fixedCodes()
	// deflate wraps a hand-written stream in a member whose ISIZE lets
	// the decoder get as far as the fault.
	deflate := func(size int, fn func(w *bitWriter)) []byte {
		var w bitWriter
		fn(&w)
		return member(w.bytes(), make([]byte, size))
	}
	dynamic := func(litLens, distLens []uint8) []byte {
		return deflate(4, func(w *bitWriter) {
			w.dynamicHeader(true, litLens, distLens)
			w.bits(0, 32)
		})
	}
	// preLens is a dynamic header whose code-length code has exactly
	// these lengths, in codeOrder, followed by the given bits.
	preLens := func(lens []uint32, then uint32) []byte {
		return deflate(4, func(w *bitWriter) {
			w.blockHeader(true, 2)
			w.bits(0, 5)
			w.bits(0, 5)
			w.bits(uint32(len(lens)-4), 4)
			for _, l := range lens {
				w.bits(l, 3)
			}
			w.bits(then, 32)
		})
	}
	lens257 := func(set map[int]uint8) []uint8 {
		l := make([]uint8, 257)
		for s, n := range set {
			l[s] = n
		}
		return l
	}
	ones := make([]uint32, numPreSyms)
	for i := range ones {
		ones[i] = 1
	}

	for _, tc := range []struct {
		name string
		m    []byte
		want error
	}{
		{"flipped CRC", patch(func(m []byte) []byte { m[trailer] ^= 1; return m }), errGzipTrailer},
		{"ISIZE one too small", patch(func(m []byte) []byte {
			binary.LittleEndian.PutUint32(m[trailer+4:], isize-1)
			return m
		}), errGzipTrailer},
		{"ISIZE one too large", patch(func(m []byte) []byte {
			binary.LittleEndian.PutUint32(m[trailer+4:], isize+1)
			return m
		}), errGzipTrailer},
		{"trailing byte", patch(func(m []byte) []byte { return append(m, 0) }), nil},
		{"second member", patch(func(m []byte) []byte { return append(m, good...) }), nil},
		{"wrong magic", patch(func(m []byte) []byte { m[1] = 0x8c; return m }), errGzipHeader},
		{"wrong method", patch(func(m []byte) []byte { m[2] = 7; return m }), errGzipHeader},
		{"block type 3", deflate(4, func(w *bitWriter) { w.blockHeader(true, 3); w.bits(0, 32) }), errDeflate},
		{"stored LEN/NLEN mismatch", deflate(4, func(w *bitWriter) {
			w.blockHeader(true, 0)
			w.bits(0, 5)
			w.bits(4, 16)
			w.bits(4, 16)
			w.bits(0, 32)
		}), errDeflate},
		{"stored block longer than the input", deflate(100, func(w *bitWriter) {
			w.blockHeader(true, 0)
			w.bits(0, 5)
			w.bits(100, 16)
			w.bits(uint32(^uint16(100)), 16)
		}), errDeflateEOF},
		{"distance before the start of output", deflate(4, func(w *bitWriter) {
			w.blockHeader(true, 1)
			w.sym(lit, 'a')
			w.sym(lit, 257)
			w.sym(dist, 1) // two back, one byte written
			w.sym(lit, endOfBlock)
		}), errDeflate},
		{"reserved length symbol 286", deflate(4, func(w *bitWriter) {
			w.blockHeader(true, 1)
			w.sym(lit, 286)
			w.sym(lit, endOfBlock)
		}), errDeflate},
		{"reserved distance symbol 30", deflate(4, func(w *bitWriter) {
			w.blockHeader(true, 1)
			w.sym(lit, 'a')
			w.sym(lit, 257)
			w.sym(dist, 30)
			w.sym(lit, endOfBlock)
		}), errDeflate},
		{"no final block", deflate(0, func(w *bitWriter) {
			w.blockHeader(false, 1)
			w.sym(lit, endOfBlock)
		}), errDeflateEOF},
		{"deflate data ends before the trailer", deflate(0, func(w *bitWriter) {
			w.blockHeader(true, 1)
			w.sym(lit, endOfBlock)
			w.bits(0, 16)
		}), errDeflate},
		{"over-subscribed code-length code", preLens(ones, 0), errDeflate},
		{"incomplete code-length code", preLens([]uint32{2, 2, 0, 0}, 0), errDeflate},
		// Code-length symbols 16 and 0 at one bit each: the stream opens
		// with "repeat the previous length", and there is none.
		{"repeat with nothing before it", preLens([]uint32{1, 0, 0, 1}, 1), errDeflate},
		{"over-subscribed literal/length code", dynamic(lens257(map[int]uint8{'a': 1, 'b': 2, 'c': 2, endOfBlock: 2}), []uint8{1}), errDeflate},
		{"incomplete literal/length code", dynamic(lens257(map[int]uint8{'a': 2, endOfBlock: 2}), []uint8{1}), errDeflate},
		{"lone two-bit literal/length codeword", dynamic(lens257(map[int]uint8{endOfBlock: 2}), []uint8{1}), errDeflate},
		{"incomplete distance code", dynamic(lens257(map[int]uint8{'a': 1, endOfBlock: 1}), []uint8{2}), errDeflate},
		{"empty literal/length code", dynamic(lens257(nil), []uint8{1}), errDeflate},
	} {
		if agree(t, tc.name, tc.m) {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var st decodeState
		if _, err := st.inflate(tc.m); tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	for i := 0; i < len(good); i++ {
		if agree(t, "cut", good[:i]) {
			t.Fatalf("member cut at byte %d of %d accepted", i, len(good))
		}
	}
}

// TestInflateLyingSizeBuysNoAllocation: ISIZE is only believed as far as
// the bytes present could inflate, so a 30-byte member claiming 1 GiB is
// refused before the arena is sized.
func TestInflateLyingSizeBuysNoAllocation(t *testing.T) {
	m := gzipAt(t, gzip.BestSpeed, []byte("ab"))
	if len(m) > 30 {
		t.Fatalf("member is %d bytes", len(m))
	}
	binary.LittleEndian.PutUint32(m[len(m)-4:], maxBodyBytes)
	st := new(decodeState)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := st.inflate(m)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("member with a false ISIZE accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("refusing it allocated %d bytes", grew)
	}
	binary.LittleEndian.PutUint32(m[len(m)-4:], maxBodyBytes+1)
	if _, err := st.inflate(m); err == nil {
		t.Fatal("member claiming more than the body limit accepted")
	}
}

// FuzzInflate: on any bytes at all, the inflater and compress/gzip agree
// on whether it is one well-formed member and, if so, on every byte of
// its body.
func FuzzInflate(f *testing.F) {
	for _, m := range validMembers(f) {
		f.Add(m)
	}
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		agree(t, "fuzz input", data)
	})
}

// TestInternTableSurvivesManyPaths: record paths bypass the intern
// table, so a job with more distinct paths than the table holds leaves
// it serving what it is for.
func TestInternTableSurvivesManyPaths(t *testing.T) {
	wide := sampleJob()
	rec := wide.Records[0]
	wide.Records = nil
	for i := 0; i < 10000; i++ {
		rec.Path = "/scratch/run/file." + strconv.Itoa(i)
		wide.Records = append(wide.Records, rec)
	}
	wideBlob, err := MarshalBinary(wide)
	if err != nil {
		t.Fatal(err)
	}
	later := sampleJob()
	later.User, later.Exe = "carol", "/apps/bin/nek5000"
	later.Metadata = map[string]string{"mosaic.archetype": "steady", "site": "bw"}
	laterBlob, err := MarshalBinary(later)
	if err != nil {
		t.Fatal(err)
	}

	var st decodeState
	var first, filler, second Job
	for _, step := range []struct {
		j    *Job
		blob []byte
	}{{&first, laterBlob}, {&filler, wideBlob}, {&second, laterBlob}} {
		if _, _, err := st.decode(step.j, step.blob, false); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.intern) > 16 {
		t.Fatalf("intern table holds %d strings after a 10 000-path job", len(st.intern))
	}
	if filler.Records[9999].Path != "/scratch/run/file.9999" {
		t.Fatalf("path 9999 = %q", filler.Records[9999].Path)
	}
	same := func(what, a, b string) {
		if a != b || unsafe.StringData(a) != unsafe.StringData(b) {
			t.Errorf("%s %q is not served from the intern table", what, a)
		}
	}
	same("user", first.User, second.User)
	same("exe", first.Exe, second.Exe)
	keys := func(j *Job) map[string]string {
		m := map[string]string{}
		for k := range j.Metadata {
			m[k] = k
		}
		return m
	}
	k1, k2 := keys(&first), keys(&second)
	for k := range later.Metadata {
		same("metadata key", k1[k], k2[k])
	}
	// Every path of a job is a piece of one string.
	base := unsafe.StringData(filler.Records[0].Path)
	last := filler.Records[9999].Path
	if off := uintptr(unsafe.Pointer(unsafe.StringData(last))) - uintptr(unsafe.Pointer(base)); off > uintptr(len(wideBlob)) {
		t.Errorf("paths of one job are %d bytes apart", off)
	}
}
