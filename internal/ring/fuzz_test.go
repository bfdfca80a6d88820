package ring

import (
	"bytes"
	"strings"
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

// FuzzResultPush: parseResultPush reads what a peer sends as an
// OpResultPush body, in the blob-list form or the JSON form of a node
// that predates it. Arbitrary bytes yield an error and nothing else, or
// three fields that appendResultPush encodes to a body parsing to the
// same three. The one body the two forms could disagree on starts with
// '{' as a blob list — an ID whose length ends in that byte, which no
// trace ID has — and it must be refused, not read as something else.
func FuzzResultPush(f *testing.F) {
	id, fp := strings.Repeat("ab", 32), "cfg-0123"
	record := append([]byte{0x7b, 0x00, 0xff, 0x22, 0, 0, 0, 0x80}, "{\n  \"job_id\": 1\n}\n"...)
	body := appendResultPush(nil, id, fp, record)
	legacy := []byte(`{"id":"` + id + `","fp":"` + fp + `","result":{"job_id":1,"categories":["write_on_end"]}}`)
	f.Add(body)
	f.Add(body[:len(body)-3])
	f.Add(AppendBlob(bytes.Clone(body), []byte("extra")))
	f.Add(legacy)
	f.Add(legacy[:len(legacy)-5])
	f.Add([]byte(`{"id":7}`))
	f.Add([]byte(`{"id":"` + strings.Repeat("a", '{') + `","result":null}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, fp, result, err := parseResultPush(data)
		if err != nil {
			if id != "" || fp != "" || result != nil {
				t.Fatalf("error %v with a partial value: %q %q %q", err, id, fp, result)
			}
			return
		}
		re := appendResultPush(nil, id, fp, result)
		id2, fp2, result2, err := parseResultPush(re)
		if err != nil {
			if byte(len(id)) != '{' {
				t.Fatalf("(%q, %q, %q) re-encodes to a body that is refused: %v", id, fp, result, err)
			}
			return
		}
		if id2 != id || fp2 != fp || !bytes.Equal(result2, result) {
			t.Fatalf("(%q, %q, %q) re-encodes to a body read as (%q, %q, %q)", id, fp, result, id2, fp2, result2)
		}
	})
}
