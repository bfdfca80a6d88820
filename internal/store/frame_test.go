package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"slices"
	"testing"
)

// TestFrameGoldenBytes pins the on-disk format: a store directory or an
// event log written by any build must open under any other.
func TestFrameGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		got        []byte
	}{
		{"segment", "08000000" + "01" + "0300" + "742f61" + "6869" + "49a53cbc",
			appendFrame(nil, kindTrace, "t/a", []byte("hi"))},
		{"event log", "05000000" + "04" + "0000" + "6576" + "361a4e92",
			appendFrame(nil, kindEvent, "", []byte("ev"))},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s frame = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// acceptAll is the scan callback of a file in which every kind is legal.
func acceptAll(n *int) func(int64, byte, []byte, []byte) scanEnd {
	return func(int64, byte, []byte, []byte) scanEnd { *n++; return scanToLimit }
}

// FuzzFrameScan runs the scanner over arbitrary bytes: it must not
// panic, the prefix it accepts must be whole frames whose checksums hold
// (checked here by a second, independent walk), it must say it reached
// the limit exactly when it accepted everything, and scanning the
// accepted prefix again must accept all of it.
func FuzzFrameScan(f *testing.F) {
	log := appendFrame(nil, kindTrace, "t/a", []byte("trace bytes"))
	log = appendFrame(log, kindResult, "r/a/fp", []byte(`{"categories":["x"]}`))
	log = appendFrame(log, kindEvent, "", nil)
	f.Add(log)
	f.Add(log[:len(log)-5])
	flipped := bytes.Clone(log)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0})
	f.Add([]byte{3, 0, 0, 0, 1, 9, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var frames int
		good, end, err := scanFrames(bytes.NewReader(data), int64(len(data)), acceptAll(&frames))
		if err != nil {
			t.Fatalf("scan of an in-memory log failed: %v", err)
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("valid prefix %d of %d bytes", good, len(data))
		}
		if (end == scanToLimit) != (good == int64(len(data))) || end == scanStopped {
			t.Fatalf("scan ended %v with %d of %d bytes valid", end, good, len(data))
		}
		walked := 0
		for p := data[:good]; len(p) > 0; walked++ {
			n := int(binary.LittleEndian.Uint32(p))
			payload, sum := p[frameHeaderLen:frameHeaderLen+n], p[frameHeaderLen+n:]
			if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(sum) {
				t.Fatalf("frame %d of the valid prefix fails its checksum", walked)
			}
			p = sum[frameCRCLen:]
		}
		if walked != frames {
			t.Fatalf("callback saw %d frames, the valid prefix holds %d", frames, walked)
		}
		var again int
		good2, end2, err := scanFrames(bytes.NewReader(data[:good]), good, acceptAll(&again))
		if err != nil || good2 != good || end2 != scanToLimit || again != frames {
			t.Fatalf("rescan of the valid prefix: %d/%d bytes, %d/%d frames, end %v, err %v",
				good2, good, again, frames, end2, err)
		}
	})
}

// TestScanFramesWiderThanWindow: a frame larger than the readahead
// window is copied out instead of being peeked in place, and the frames
// around it are still found where they are.
func TestScanFramesWiderThanWindow(t *testing.T) {
	wide := bytes.Repeat([]byte("0123456789abcdef"), (readaheadBytes+readaheadBytes/2)/16)
	var log []byte
	log = appendFrame(log, kindTrace, "t/before", []byte("small"))
	log = appendFrame(log, kindTrace, "t/wide", wide)
	log = appendFrame(log, kindServed, "r/after", []byte("12345678{}"))
	var keys []string
	good, end, err := scanFrames(bytes.NewReader(log), int64(len(log)), func(off int64, kind byte, key, value []byte) scanEnd {
		keys = append(keys, string(key))
		if string(key) == "t/wide" && !bytes.Equal(value, wide) {
			t.Error("wide frame's value differs")
		}
		return scanToLimit
	})
	if err != nil || end != scanToLimit || good != int64(len(log)) || !slices.Equal(keys, []string{"t/before", "t/wide", "r/after"}) {
		t.Fatalf("scanned %d of %d bytes, end %v, keys %v, err %v", good, len(log), end, keys, err)
	}
	// Torn inside the wide frame: the prefix before it stands.
	cut := int64(len(log) - 100 - len("12345678{}"))
	if good, end, err = scanFrames(bytes.NewReader(log), cut, acceptAll(new(int))); err != nil || end != scanInvalid || good >= cut || good == 0 {
		t.Fatalf("torn wide frame: %d valid bytes of %d, end %v, err %v", good, cut, end, err)
	}
}
