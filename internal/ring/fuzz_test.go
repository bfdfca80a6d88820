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
		blobs, err := SplitBlobs(data, maxPairBlobs)
		if err != nil {
			return
		}
		if len(blobs) > maxPairBlobs {
			t.Fatalf("%d blobs past the cap of %d", len(blobs), maxPairBlobs)
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
// OpResultPush body, in the blob-list form — three blobs per result — or
// the JSON form of a node that predates it. Arbitrary bytes yield an
// error and nothing else, or results that appendResultPush encodes to a
// body parsing to the same results. The one body the two forms could
// disagree on starts with '{' as a blob list — a first ID whose length
// ends in that byte, which no trace ID has — and it must be refused, not
// read as something else.
func FuzzResultPush(f *testing.F) {
	id, fp := strings.Repeat("ab", 32), "cfg-0123"
	record := append([]byte{0x7b, 0x00, 0xff, 0x22, 0, 0, 0, 0x80}, "{\n  \"job_id\": 1\n}\n"...)
	body := appendResultPush(nil, id, fp, record)
	legacy := []byte(`{"id":"` + id + `","fp":"` + fp + `","result":{"job_id":1,"categories":["write_on_end"]}}`)
	f.Add(body)
	f.Add(body[:len(body)-3])
	f.Add(appendResultPush(bytes.Clone(body), strings.Repeat("cd", 32), fp, record[:9]))
	f.Add(AppendBlob(bytes.Clone(body), []byte("extra")))
	f.Add(legacy)
	f.Add(legacy[:len(legacy)-5])
	f.Add([]byte(`{"id":7}`))
	f.Add([]byte(`{"id":"` + strings.Repeat("a", '{') + `","result":null}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := parseResultPush(data)
		if err != nil {
			if got != nil {
				t.Fatalf("error %v with a partial value: %+v", err, got)
			}
			return
		}
		if len(got) == 0 || len(got) > maxPushBatch {
			t.Fatalf("%d results from one body", len(got))
		}
		var re []byte
		for _, r := range got {
			re = appendResultPush(re, r.id, r.fp, r.record)
		}
		again, err := parseResultPush(re)
		if err != nil {
			if byte(len(got[0].id)) != '{' {
				t.Fatalf("%+v re-encodes to a body that is refused: %v", got, err)
			}
			return
		}
		if len(again) != len(got) {
			t.Fatalf("%d results re-encode to a body read as %d", len(got), len(again))
		}
		for i, r := range got {
			if a := again[i]; a.id != r.id || a.fp != r.fp || !bytes.Equal(a.record, r.record) {
				t.Fatalf("result %d: (%q, %q, %q) re-encodes to a body read as (%q, %q, %q)", i, r.id, r.fp, r.record, a.id, a.fp, a.record)
			}
		}
	})
}

// FuzzQueryWire holds the OpQuery decoders to what a hostile peer may
// rely on. The request: too short for the head is an error and no value,
// anything else re-encodes to the bytes it came from. The reply: an error
// (whose message is all that is allocated) and no value, or two spans of
// the input that re-encode to it — walked without allocating — whose IDs
// then cost one string no longer than the input and, given room, nothing
// else. The first two bytes pick the
// table size and the limit the asking node would have had in mind.
func FuzzQueryWire(f *testing.F) {
	good := appendQueryReply(nil, []int{0, 3, 0, 70000}, []string{"ab", "", "cde"})
	f.Add(append([]byte{4, 3}, good...))
	for _, bad := range queryReplyDamage(good) {
		f.Add(append([]byte{4, 3}, bad...))
	}
	f.Add(append([]byte{4, 0xff}, good...)) // no limit
	f.Add(append([]byte{2, 3}, good...))    // a smaller table: class 3 is not in it
	f.Add([]byte{})
	f.Add(append([]byte{1, 1}, appendQueryRequest(nil, 0x1122334455667788, -1, "write_on_end")...))
	f.Add(append([]byte{1, 1}, appendQueryRequest(nil, 1, 100, "")[:11]...))
	f.Add([]byte(`  {"q":"write_on_end OR NOT write_on_end"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		classes, limit := 1, -1
		if len(data) >= 2 {
			classes, limit = int(data[0]), int(int8(data[1]))
			data = data[2:]
		}
		version, lim, q, err := parseQueryRequest(data)
		switch {
		case err != nil:
			if version != 0 || lim != 0 || q != "" || len(data) >= queryRequestHead {
				t.Fatalf("request error %v with (%x, %d, %q) from %d bytes", err, version, lim, q, len(data))
			}
		case lim >= 0 && !bytes.Equal(appendQueryRequest(nil, version, lim, q), data):
			t.Fatalf("request (%x, %d, %q) does not re-encode to %x", version, lim, q, data)
		case lim < 0 && !bytes.Equal(appendQueryRequest(nil, version, -1, q)[12:], data[12:]):
			t.Fatalf("request (%x, %d, %q) loses its query", version, lim, q)
		}

		r, err := parseQueryReply(data, classes, limit)
		if err != nil {
			if r.counts != nil || r.page != nil || r.ids != 0 {
				t.Fatalf("reply error %v with a partial value %+v", err, r)
			}
			return
		}
		if n := testing.AllocsPerRun(1, func() { parseQueryReply(data, classes, limit) }); n != 0 { //nolint:errcheck
			t.Fatalf("parseQueryReply allocated %v times reading a good reply", n)
		}
		if len(r.counts)+len(r.page)+queryReplyHead != len(data) || (limit >= 0 && r.ids > limit) {
			t.Fatalf("reply of %d bytes parsed to %d + %d bytes and %d IDs under limit %d", len(data), len(r.counts), len(r.page), r.ids, limit)
		}
		counts := make([]int, classes)
		r.addCounts(counts) // a class ≥ classes would panic here
		// The one allocation is string(r.page), a span of data.
		ids := make([]string, 0, r.ids)
		if n := testing.AllocsPerRun(1, func() { ids = r.appendIDs(ids[:0]) }); n > 1 || len(ids) != r.ids {
			t.Fatalf("a page of %d IDs in %d bytes gave %d IDs in %v allocations", r.ids, len(r.page), len(ids), n)
		}
		if re := appendQueryReply(nil, counts, ids); !bytes.Equal(re, data) {
			t.Fatalf("reply re-encodes to %x, parsed from %x", re, data)
		}
	})
}
