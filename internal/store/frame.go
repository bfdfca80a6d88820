package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The one on-disk format of this package, written by its one appender
// (logFile, log.go) into store segments and AppendLogs alike. All
// integers are little-endian:
//
//	[u32 payloadLen][payload][u32 crc32(payload)]
//	payload = [u8 kind][u16 keyLen][key][value]
//
// appendFrame is the only writer and scanFrames the only reader; what a
// particular file accepts (which kinds, which key lengths) is decided by
// the filter its owner opens the logFile with.
const (
	frameHeaderLen  = 4
	framePayloadMin = 1 + 2
	frameCRCLen     = 4
	maxFrameLen     = 1 << 30 // 1 GiB per record, matching darshan's decoder limits
	maxKeyLen       = 1 << 10
)

// Record kinds. Segments hold kinds 1–3 and 5; kindEvent frames only
// ever appear in an AppendLog, which is its own file with its own
// lifecycle and is never mixed into the content-addressed segment
// sequence. A result is written as kindServed (result.go); kindResult,
// the compact JSON document stores held before that, is still read and
// never written. kindExplain frames, the explanations older stores kept,
// are accepted in a segment and never indexed or read; only
// benchcompat.go's PutExplanation still writes one.
const (
	kindTrace   byte = 1
	kindResult  byte = 2
	kindExplain byte = 3
	kindEvent   byte = 4
	kindServed  byte = 5
)

// readaheadBytes sizes the buffered reader of a scan: large enough that
// a multi-GiB log is read at disk bandwidth, not at one syscall per
// frame.
const readaheadBytes = 1 << 20

// appendFrame stages one framed record onto dst.
func appendFrame(dst []byte, kind byte, key string, value []byte) []byte {
	payloadLen := framePayloadMin + len(key) + len(value)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payloadLen))
	payloadStart := len(dst)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(key)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[payloadStart:]))
}

// checkRecord validates one record's key and payload size.
func checkRecord(key string, value []byte) error {
	if len(key) > maxKeyLen {
		return fmt.Errorf("store: key too long (%d bytes)", len(key))
	}
	if payloadLen := framePayloadMin + len(key) + len(value); payloadLen > maxFrameLen {
		return fmt.Errorf("store: record too large (%d bytes)", payloadLen)
	}
	return nil
}

// valueOff is where the value of the frame at frameOff starts.
func valueOff(frameOff int64, keyLen int) int64 {
	return frameOff + frameHeaderLen + framePayloadMin + int64(keyLen)
}

// scanEnd is a scan callback's verdict on one frame and, returned by
// scanFrames, the reason the scan ended.
type scanEnd int

const (
	// scanToLimit from a callback means "go on"; from scanFrames, that
	// every byte up to the limit belonged to a valid frame.
	scanToLimit scanEnd = iota
	// scanStopped: the callback has seen enough.
	scanStopped
	// scanInvalid: the frame is torn (short, out of bounds, CRC mismatch)
	// or the callback does not accept its kind or key in this file.
	scanInvalid
)

// scanFrames walks the frames in r[0:limit) in one buffered sequential
// pass. Every frame's length bounds and CRC
// are verified before fn sees its offset, kind, key and value; key and
// value alias the frame buffer and are only valid until fn returns. It
// returns the offset after the last valid frame and why it stopped
// there: a frame that fails validation, or that fn rejects, is not part
// of the valid prefix, one that fn stops at is.
func scanFrames(r io.ReaderAt, limit int64, fn func(off int64, kind byte, key, value []byte) scanEnd) (good int64, end scanEnd, err error) {
	br := bufio.NewReaderSize(io.NewSectionReader(r, 0, limit), int(min(limit, readaheadBytes)))
	var big []byte // for the frames wider than the readahead window
	var off int64
	for off < limit {
		if off+frameHeaderLen > limit {
			return off, scanInvalid, nil // torn length prefix
		}
		hdr, err := br.Peek(frameHeaderLen)
		if err != nil {
			return off, scanInvalid, fmt.Errorf("store: reading frame header at %d: %w", off, err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr))
		if n < framePayloadMin || n > maxFrameLen || off+frameHeaderLen+n+frameCRCLen > limit {
			return off, scanInvalid, nil // torn or garbage tail
		}
		// A frame that fits the window is checked and handed out where the
		// read put it, and consumed afterwards; only a wider one is copied
		// out.
		var buf []byte
		peeked := 0
		if whole := int(frameHeaderLen + n + frameCRCLen); whole <= br.Size() {
			if buf, err = br.Peek(whole); err == nil {
				buf, peeked = buf[frameHeaderLen:], whole
			}
		} else {
			if int64(cap(big)) < n+frameCRCLen {
				big = make([]byte, n+frameCRCLen)
			}
			buf = big[:n+frameCRCLen]
			if _, err = br.Discard(frameHeaderLen); err == nil {
				_, err = io.ReadFull(br, buf)
			}
		}
		if err != nil {
			return off, scanInvalid, fmt.Errorf("store: reading frame at %d: %w", off, err)
		}
		payload := buf[:n]
		keyEnd := framePayloadMin + int64(binary.LittleEndian.Uint16(payload[1:3]))
		// The checksum of a partial write never matches.
		if keyEnd > n || crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[n:]) {
			return off, scanInvalid, nil
		}
		next := off + frameHeaderLen + n + frameCRCLen
		switch fn(off, payload[0], payload[framePayloadMin:keyEnd], payload[keyEnd:]) {
		case scanStopped:
			return next, scanStopped, nil
		case scanInvalid:
			return off, scanInvalid, nil
		}
		_, _ = br.Discard(peeked) // bytes Peek returned: cannot fail
		off = next
	}
	return off, scanToLimit, nil
}
