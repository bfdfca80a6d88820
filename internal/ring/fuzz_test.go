package ring

import (
	"bytes"
	"testing"
)

// FuzzFrameWire holds the two decoders a peer's bytes reach — ParseFrame
// and SplitBlobs — to their contracts on arbitrary input: no panic,
// never more consumed than given, "need more bytes" and "malformed" both
// consume nothing, and whatever parses re-encodes to the bytes it was
// parsed from.
func FuzzFrameWire(f *testing.F) {
	pairs := AppendBlob(AppendBlob(nil, []byte("id")), []byte("blob"))
	whole := AppendFrame(nil, &Frame{Op: OpIngest, RequestID: "req-1", Traceparent: "00-ab-cd-01", Body: pairs})
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	f.Add(pairs)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{6, 0, 0, 0, 1, 0, 0xff, 0xff, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := ParseFrame(data)
		if n < 0 || n > len(data) || (err != nil && n != 0) {
			t.Fatalf("ParseFrame consumed %d of %d bytes, err %v", n, len(data), err)
		}
		if n > 0 {
			if re := AppendFrame(nil, &fr); !bytes.Equal(re, data[:n]) {
				t.Fatalf("frame re-encodes to %x, parsed from %x", re, data[:n])
			}
			data = fr.Body
		}
		blobs, err := SplitBlobs(data, maxPairItems)
		if err != nil {
			return
		}
		if len(blobs) > maxPairItems {
			t.Fatalf("%d blobs past the cap of %d", len(blobs), maxPairItems)
		}
		var re []byte
		for _, b := range blobs {
			re = AppendBlob(re, b)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("blob list re-encodes to %x, split from %x", re, data)
		}
	})
}
