package darshan

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
)

// One-shot gzip inflater for the .mosd read path. A file body is a
// single gzip member that is already wholly in memory and states its own
// inflated size, so nothing here streams: []byte in, []byte out, no
// io.Reader, no 32 KB window. Bits come from a 64-bit buffer refilled
// eight bytes at a time, symbols from two-level tables (one lookup for
// every code no longer than the primary index, two otherwise), and
// matches are copied inside the output slice.
//
// It accepts exactly what compress/gzip accepts with Multistream(false)
// and nothing left in the reader — FuzzInflate holds the two to that —
// and like it never panics and never allocates more than the input can
// justify.

// Table geometry. The sizes are zlib's examples/enough.c bounds for the
// widest table a complete code can need at these primary widths; build
// rejects a code that would not fit, so a wrong bound could only turn
// into a refused stream, never into an out-of-range write.
const (
	maxCodeLen = 15

	litLenBits      = 10   // primary index width, literal/length code
	litLenTableSize = 1334 // enough 288 10 15
	distBits        = 8    // primary index width, distance code
	distTableSize   = 402  // enough 32 8 15
	preBits         = 7    // code-length codes are at most 7 bits: no subtables

	maxLitLenSyms = 288
	maxDistSyms   = 32
	numPreSyms    = 19
	endOfBlock    = 256

	gzipTrailerLen = 8 // CRC-32 then ISIZE
	// maxExpansion is deflate's best case: a length-258 match in two bits.
	maxExpansion = 1032
)

// A table entry is one uint32:
//
//	bits  0-7   bits to consume: the codeword, plus the symbol's extra bits
//	bits  8-11  bits of that which are codeword (the extra bits follow them);
//	            on an entSub entry, the index width of the subtable
//	bits 12-15  entry kind flags
//	bits 16-31  literal byte, base length, base distance, code-length
//	            symbol, or the subtable's first index
//
// Entries inside a subtable count codeword bits from after the primary
// index, which the decoder has consumed by then.
const (
	entLiteral = 1 << 15
	entSub     = 1 << 14
	entEOB     = 1 << 13
	entInvalid = 1 << 12 // a bit pattern no code uses, or a symbol deflate reserves
)

// codeOrder is the order code-length code lengths appear in a dynamic
// block header (RFC 1951 §3.2.7).
var codeOrder = [numPreSyms]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// litLenSyms, distSyms and preSyms map a symbol to its table entry less
// the codeword length, which build adds.
var litLenSyms, distSyms, preSyms = func() (ll [maxLitLenSyms]uint32, d [maxDistSyms]uint32, p [numPreSyms]uint32) {
	for s := 0; s < 256; s++ {
		ll[s] = entLiteral | uint32(s)<<16
	}
	ll[endOfBlock] = entEOB
	base := 3
	for s := 257; s < 285; s++ {
		extra := max(0, (s-261)/4)
		ll[s] = uint32(base)<<16 | uint32(extra)
		base += 1 << extra
	}
	ll[285] = 258 << 16
	ll[286], ll[287] = entInvalid, entInvalid
	base = 1
	for s := 0; s < 30; s++ {
		extra := max(0, (s-2)/2)
		d[s] = uint32(base)<<16 | uint32(extra)
		base += 1 << extra
	}
	d[30], d[31] = entInvalid, entInvalid
	for s := range p {
		p[s] = uint32(s) << 16
	}
	return
}()

var (
	errGzipHeader        = errors.New("darshan: invalid gzip header")
	errGzipEOF     error = truncated("darshan: truncated gzip member: unexpected EOF")
	errGzipTrailer       = errors.New("darshan: gzip checksum or size mismatch")
	errDeflate           = errors.New("darshan: corrupted deflate stream")
	errDeflateEOF  error = truncated("darshan: truncated deflate stream: unexpected EOF")
)

// truncated is the error of an input that ends too soon: its text, and
// io.ErrUnexpectedEOF underneath. A constant rather than a wrapped
// error, so the package builds nothing at init.
type truncated string

func (e truncated) Error() string { return string(e) }
func (truncated) Unwrap() error   { return io.ErrUnexpectedEOF }

// inflater is the decoder's working state: the bit reader and the three
// decode tables, about 8 KB. It lives in the pooled decodeState.
type inflater struct {
	src []byte // deflate data followed by the gzip trailer
	end int    // len(src) - gzipTrailerLen: where the deflate data must end
	pos int    // next byte of src to load
	b   uint64 // bit buffer, next bit in bit 0
	nb  int    // bits of b accounted for; negative once the data has run out

	lens [maxLitLenSyms + maxDistSyms]uint8
	pre  [1 << preBits]uint32
	lt   [litLenTableSize]uint32
	dt   [distTableSize]uint32
}

// gunzip inflates the single gzip member src into dst's storage when it
// is large enough, a fresh slice otherwise, and returns the body. Checked
// in this order: the header (magic, method, optional fields, header
// CRC), ISIZE against the body limit and against what the bytes present
// could possibly inflate to — both before anything is allocated — the
// deflate stream itself, that it ends exactly where the trailer begins
// (one member, no trailing bytes), ISIZE against the bytes produced, and
// the CRC-32 of the body.
func (d *inflater) gunzip(dst, src []byte) ([]byte, error) {
	hdr, err := gzipHeaderLen(src)
	if err != nil {
		return nil, err
	}
	src = src[hdr:]
	if len(src) < gzipTrailerLen {
		return nil, errGzipEOF
	}
	end := len(src) - gzipTrailerLen
	sum := binary.LittleEndian.Uint32(src[end:])
	size := int64(binary.LittleEndian.Uint32(src[end+4:]))
	if size > maxBodyBytes {
		return nil, fmt.Errorf("darshan: body exceeds %d byte limit", maxBodyBytes)
	}
	if size > int64(end)*maxExpansion {
		return nil, errGzipTrailer // no deflate stream this short inflates to that
	}
	if int64(cap(dst)) < size {
		dst = make([]byte, size)
	}
	dst = dst[:size]
	d.src, d.end, d.pos, d.b, d.nb = src, end, 0, 0, 0
	n, err := d.inflate(dst)
	d.src = nil
	if err != nil {
		return nil, err
	}
	if n != len(dst) || crc32.ChecksumIEEE(dst) != sum {
		return nil, errGzipTrailer
	}
	return dst, nil
}

// gzipHeaderLen validates the member header at the start of src (RFC
// 1952) and returns its length. Like compress/gzip it ignores MTIME, XFL,
// OS, FTEXT and the reserved flag bits, refuses a name or comment whose
// terminator is not within 512 bytes, and verifies FHCRC when present.
func gzipHeaderLen(src []byte) (int, error) {
	const (
		flagHdrCRC  = 1 << 1
		flagExtra   = 1 << 2
		flagName    = 1 << 3
		flagComment = 1 << 4
		maxString   = 512
	)
	if len(src) < 10 {
		return 0, errGzipEOF
	}
	if src[0] != 0x1f || src[1] != 0x8b || src[2] != 8 {
		return 0, errGzipHeader
	}
	flg, n := src[3], 10
	if flg&flagExtra != 0 {
		if len(src)-n < 2 {
			return 0, errGzipEOF
		}
		n += 2 + int(binary.LittleEndian.Uint16(src[n:]))
	}
	for _, f := range [2]byte{flagName, flagComment} {
		if flg&f == 0 {
			continue
		}
		for i := 0; ; i++ {
			if i == maxString {
				return 0, errGzipHeader
			}
			if n+i >= len(src) {
				return 0, errGzipEOF
			}
			if src[n+i] == 0 {
				n += i + 1
				break
			}
		}
	}
	if flg&flagHdrCRC != 0 {
		if len(src)-n < 2 {
			return 0, errGzipEOF
		}
		if binary.LittleEndian.Uint16(src[n:]) != uint16(crc32.ChecksumIEEE(src[:n])) {
			return 0, errGzipHeader
		}
		n += 2
	}
	if n > len(src) {
		return 0, errGzipEOF
	}
	return n, nil
}

// refill tops the bit buffer up to at least 56 bits while input remains.
// Up to the trailer it is one unaligned 8-byte load: only whole bytes are
// counted into nb, and the partial byte above them is loaded again,
// identically, by the next refill. Inside the trailer it falls back to
// single bytes; past the end of src it loads nothing, and a decoder that
// consumes bits it was not given drives nb negative.
func (d *inflater) refill() {
	if d.pos <= d.end {
		d.b |= binary.LittleEndian.Uint64(d.src[d.pos:]) << (uint(d.nb) & 63)
		d.pos += (63 - d.nb) >> 3
		d.nb |= 56
		return
	}
	for d.nb <= 56 && d.pos < len(d.src) {
		d.b |= uint64(d.src[d.pos]) << uint(d.nb)
		d.pos++
		d.nb += 8
	}
}

func (d *inflater) drop(n uint32) {
	d.b >>= n & 63
	d.nb -= int(n)
}

// inflate decodes every block of the stream into out and returns the
// number of bytes written. It fails if out is too small, if the stream is
// malformed or runs out, and if the final block does not end on the last
// byte before the trailer.
func (d *inflater) inflate(out []byte) (int, error) {
	op := 0
	for {
		d.refill()
		final, typ := d.b&1 != 0, d.b>>1&3
		d.drop(3)
		if d.nb < 0 {
			return 0, errDeflateEOF
		}
		var err error
		switch typ {
		case 0:
			op, err = d.stored(out, op)
		case 1:
			for i := range d.lens {
				d.lens[i] = fixedCodeLen(i)
			}
			build(d.lt[:], litLenBits, d.lens[:maxLitLenSyms], litLenSyms[:])
			build(d.dt[:], distBits, d.lens[maxLitLenSyms:], distSyms[:])
			op, err = d.huffman(out, op)
		case 2:
			if err = d.dynamicHeader(); err == nil {
				op, err = d.huffman(out, op)
			}
		default:
			err = errDeflate
		}
		if err != nil {
			return 0, err
		}
		if final {
			break
		}
	}
	// The bits left in the last byte are padding; whole bytes still in
	// the buffer were loaded, not consumed.
	if d.pos-d.nb>>3 != d.end {
		return 0, errDeflate
	}
	return op, nil
}

// fixedCodeLen is the fixed block's code (RFC 1951 §3.2.6) laid out as
// inflater.lens is: 288 literal/length lengths, then 32 distance lengths.
func fixedCodeLen(i int) uint8 {
	switch {
	case i < 144:
		return 8
	case i < 256:
		return 9
	case i < 280:
		return 7
	case i < maxLitLenSyms:
		return 8
	}
	return 5
}

// stored copies one stored block: skip to the byte boundary, LEN, NLEN,
// then LEN bytes verbatim.
func (d *inflater) stored(out []byte, op int) (int, error) {
	d.pos -= d.nb >> 3
	d.b, d.nb = 0, 0
	if d.end-d.pos < 4 {
		return 0, errDeflateEOF
	}
	n := int(binary.LittleEndian.Uint16(d.src[d.pos:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(d.src[d.pos+2:]) {
		return 0, errDeflate
	}
	d.pos += 4
	if d.end-d.pos < n {
		return 0, errDeflateEOF
	}
	if len(out)-op < n {
		return 0, errGzipTrailer
	}
	copy(out[op:], d.src[d.pos:d.pos+n])
	d.pos += n
	return op + n, nil
}

// dynamicHeader reads a dynamic block's code lengths and builds the
// literal/length and distance tables from them.
func (d *inflater) dynamicHeader() error {
	d.refill()
	nlit := int(d.b&31) + 257
	ndist := int(d.b>>5&31) + 1
	nclen := int(d.b>>10&15) + 4
	d.drop(14)
	if nlit > 286 || ndist > 30 {
		return errDeflate
	}
	var preLens [numPreSyms]uint8
	for i := 0; i < nclen; i++ {
		d.refill()
		preLens[codeOrder[i]] = uint8(d.b & 7)
		d.drop(3)
	}
	if d.nb < 0 {
		return errDeflateEOF
	}
	if !build(d.pre[:], preBits, preLens[:], preSyms[:]) {
		return errDeflate
	}
	// The two sets of lengths are one run-length coded sequence: a
	// repeat may cross from the literal/length set into the distances.
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		d.refill()
		e := d.pre[d.b&(1<<preBits-1)]
		if e&entInvalid != 0 {
			return errDeflate
		}
		d.drop(e & 0xff)
		sym, rep, v := e>>16, 0, uint8(0)
		switch sym {
		default:
			rep, v = 1, uint8(sym)
		case 16:
			if i == 0 {
				return errDeflate
			}
			rep, v = 3+int(d.b&3), lens[i-1]
			d.drop(2)
		case 17:
			rep = 3 + int(d.b&7)
			d.drop(3)
		case 18:
			rep = 11 + int(d.b&127)
			d.drop(7)
		}
		if d.nb < 0 {
			return errDeflateEOF
		}
		if rep > len(lens)-i {
			return errDeflate
		}
		for ; rep > 0; rep-- {
			lens[i] = v
			i++
		}
	}
	if !build(d.lt[:], litLenBits, lens[:nlit], litLenSyms[:]) || !build(d.dt[:], distBits, lens[nlit:], distSyms[:]) {
		return errDeflate
	}
	return nil
}

// build fills table for the canonical Huffman code whose symbol i has
// length lens[i] (0: unused): 1<<rootBits primary entries indexed by the
// next rootBits of input, and behind them one subtable for every primary
// index that longer codewords share, sized to the longest of them. It
// reports whether the lengths describe a code compress/flate accepts: a
// complete one, an empty one, or zlib's lone one-bit codeword. Every
// index a well-formed stream cannot reach holds entInvalid.
func build(table []uint32, rootBits int, lens []uint8, syms []uint32) bool {
	var count [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	space := 0 // code space used, in units of 2^-maxCodeLen
	for l := 1; l <= maxCodeLen; l++ {
		space += count[l] << (maxCodeLen - l)
	}
	switch {
	case space == 1<<maxCodeLen:
	case space == 0, space == 1<<(maxCodeLen-1) && count[1] == 1:
		for i := range table[:1<<rootBits] {
			table[i] = entInvalid
		}
	default:
		return false
	}

	// Symbols in canonical order: by length, then by value.
	var first [maxCodeLen + 2]int
	for l := 1; l <= maxCodeLen; l++ {
		first[l+1] = first[l] + count[l]
	}
	var sorted [maxLitLenSyms]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[first[l]] = uint16(s)
			first[l]++
		}
	}

	code, i := 0, 0
	next := 1 << rootBits // where the next subtable starts
	subPrefix, subStart, subBits := -1, 0, 0
	for l := 1; l <= maxCodeLen; l++ {
		for n := count[l]; n > 0; n-- {
			sym := sorted[i]
			i++
			// Deflate packs codewords most significant bit first into a
			// stream read least significant bit first: index by the
			// reversed codeword.
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			code++
			if l <= rootBits {
				e := syms[sym] + uint32(l)<<8 + uint32(l)
				for k := rev; k < 1<<rootBits; k += 1 << l {
					table[k] = e
				}
				continue
			}
			if prefix := rev & (1<<rootBits - 1); prefix != subPrefix {
				// A new subtable. It needs 2^(l-rootBits) entries for
				// this codeword, and more if the codewords of this
				// length still to come do not fill it: then longer ones
				// land here too.
				subPrefix, subStart, subBits = prefix, next, l-rootBits
				for fill := n; fill < 1<<subBits && rootBits+subBits < maxCodeLen; {
					subBits++
					fill = fill<<1 + count[rootBits+subBits]
				}
				if next += 1 << subBits; next > len(table) {
					return false
				}
				table[prefix] = entSub | uint32(subStart)<<16 | uint32(subBits)<<8 | uint32(rootBits)
			}
			sl := l - rootBits
			e := syms[sym] + uint32(sl)<<8 + uint32(sl)
			for k := rev >> rootBits; k < 1<<subBits; k += 1 << sl {
				table[subStart+k] = e
			}
		}
		code <<= 1
	}
	return true
}

// huffman decodes the symbols of one compressed block into out from
// offset op and returns the offset after the block's last byte. One
// refill covers the longest possible step — a 15-bit length code, 5
// extra bits, a 15-bit distance code and 13 extra bits are 48 of the 56
// bits it guarantees — so the loop checks for exhausted input once per
// step, after consuming, not before every field.
func (d *inflater) huffman(out []byte, op int) (int, error) {
	src, end, pos, b, nb := d.src, d.end, d.pos, d.b, d.nb
	lt, dt := &d.lt, &d.dt
	for {
		// refill, on the locals the loop keeps in registers.
		if pos <= end {
			b |= binary.LittleEndian.Uint64(src[pos:]) << (uint(nb) & 63)
			pos += (63 - nb) >> 3
			nb |= 56
		} else {
			for nb <= 56 && pos < len(src) {
				b |= uint64(src[pos]) << uint(nb)
				pos++
				nb += 8
			}
		}
		e := lt[b&(1<<litLenBits-1)]
		if e&entSub != 0 {
			b >>= litLenBits
			nb -= litLenBits
			e = lt[e>>16+uint32(b)&(1<<(e>>8&15)-1)]
		}
		field := b
		b >>= e & 63
		nb -= int(e & 0xff)
		if e&entLiteral != 0 {
			if nb < 0 {
				return 0, errDeflateEOF
			}
			if op == len(out) {
				return 0, errGzipTrailer
			}
			out[op] = byte(e >> 16)
			op++
			if e = lt[b&(1<<litLenBits-1)]; e&(entLiteral|entSub) == entLiteral && op < len(out) {
				b >>= e & 63
				nb -= int(e & 0xff)
				if nb < 0 {
					return 0, errDeflateEOF
				}
				out[op] = byte(e >> 16)
				op++
			}
			continue
		}
		if nb < 0 {
			return 0, errDeflateEOF
		}
		if e&(entEOB|entInvalid) != 0 {
			if e&entInvalid != 0 {
				return 0, errDeflate
			}
			d.pos, d.b, d.nb = pos, b, nb
			return op, nil
		}
		length := int(e>>16) + int(field&(1<<(e&63)-1)>>(e>>8&15))

		e = dt[b&(1<<distBits-1)]
		if e&entSub != 0 {
			b >>= distBits
			nb -= distBits
			e = dt[e>>16+uint32(b)&(1<<(e>>8&15)-1)]
		}
		if e&entInvalid != 0 {
			return 0, errDeflate
		}
		field = b
		b >>= e & 63
		nb -= int(e & 0xff)
		if nb < 0 {
			return 0, errDeflateEOF
		}
		dist := int(e>>16) + int(field&(1<<(e&63)-1)>>(e>>8&15))
		if dist > op {
			return 0, errDeflate // reaches back before the start of the output
		}
		if length > len(out)-op {
			return 0, errGzipTrailer
		}
		// A match may overlap its own output (dist < length repeats the
		// last dist bytes): copy in pieces that each read only bytes
		// already written, the pieces doubling as the pattern grows.
		for from, stop := op-dist, op+length; op < stop; {
			op += copy(out[op:stop], out[from:op])
		}
	}
}
