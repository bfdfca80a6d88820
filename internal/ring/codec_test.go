package ring

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Op: OpPing, Status: StatusOK},
		{Op: OpIngest, Status: StatusOK, RequestID: "req-123", Traceparent: "00-aaaa-bbbb-01", Body: []byte("payload")},
		{Op: OpQuery, Status: StatusError, RequestID: "r", Body: []byte("boom")},
		{Op: OpResult, Status: StatusNotFound, Body: nil},
		{Op: OpReplicate, Status: StatusOK, Body: bytes.Repeat([]byte{0xab}, 1<<16)},
	}
	for i, want := range cases {
		enc := AppendFrame(nil, &want)
		got, n, err := ParseFrame(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if n != len(enc) {
			t.Fatalf("case %d: consumed %d of %d bytes", i, n, len(enc))
		}
		if got.Op != want.Op || got.Status != want.Status ||
			got.RequestID != want.RequestID || got.Traceparent != want.Traceparent ||
			!bytes.Equal(got.Body, want.Body) {
			t.Fatalf("case %d: round trip mismatch: %+v", i, got)
		}
	}
}

// TestFrameGoldenBytes pins the wire format: nodes and workers of
// different builds must keep understanding each other.
func TestFrameGoldenBytes(t *testing.T) {
	got := AppendFrame(nil, &Frame{Op: OpIngest, Status: StatusNotFound, RequestID: "r1", Traceparent: "tp", Body: []byte("B")})
	want := []byte{
		11, 0, 0, 0, // length of everything after this field
		OpIngest, StatusNotFound,
		2, 0, 'r', '1',
		2, 0, 't', 'p',
		'B',
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame = %v, want %v", got, want)
	}

	// A bulk request is sent from the caller's slices, not assembled:
	// what reaches the socket is still the frame above around one blob
	// list of alternating ids and blobs.
	ids, blobs := []string{"id-a", "", "id-c"}, [][]byte{[]byte("first blob"), nil, bytes.Repeat([]byte{0xfe}, 70_000)}
	var body []byte
	for i := range ids {
		body = AppendBlob(AppendBlob(body, []byte(ids[i])), blobs[i])
	}
	want = AppendFrame(nil, &Frame{Op: OpReplicate, RequestID: "r1", Body: body})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	wire := make(chan []byte, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			wire <- nil
			return
		}
		defer conn.Close()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(conn, got); err != nil {
			got = nil
		}
		conn.Write(AppendFrame(nil, &Frame{Op: OpReplicate}))
		wire <- got
	}()
	c := NewClient(l.Addr().String(), 5*time.Second)
	defer c.Close()
	if _, err := c.call(context.Background(), OpReplicate, "replicate", "r1", nil, itemParts(ids, blobs, nil)); err != nil {
		t.Fatal(err)
	}
	if got := <-wire; !bytes.Equal(got, want) {
		t.Fatalf("a pair body of %d bytes reached the socket as %d other bytes", len(want), len(got))
	}
	gotIDs, gotBlobs, placed, err := splitItems(body, false)
	if err != nil || !slices.Equal(gotIDs, ids) || len(gotBlobs) != 3 || !bytes.Equal(gotBlobs[2], blobs[2]) || placed != nil {
		t.Fatalf("splitItems of the same body: %q, %d blobs, placed %q, err %v", gotIDs, len(gotBlobs), placed, err)
	}
}

// TestPlacedItemsRoundTrip: an OpIngestPlaced body carries each trace's
// placed followers — none, one or several — after its blob, and reads
// back as sent; the same body is not an OpIngest body, nor the other way
// round.
func TestPlacedItemsRoundTrip(t *testing.T) {
	ids := []string{"id-a", "id-b", "id-c"}
	blobs := [][]byte{[]byte("first blob"), nil, bytes.Repeat([]byte{0xfe}, 300)}
	placed := [][]string{{"b"}, nil, {"c", "node-with-a-long-name"}}
	body := bytes.Join(itemParts(ids, blobs, placed), nil)
	gotIDs, gotBlobs, gotPlaced, err := splitItems(body, true)
	if err != nil || !slices.Equal(gotIDs, ids) || len(gotBlobs) != 3 || !bytes.Equal(gotBlobs[2], blobs[2]) || len(gotBlobs[1]) != 0 {
		t.Fatalf("splitItems: %q, %d blobs, err %v", gotIDs, len(gotBlobs), err)
	}
	for i := range placed {
		if !slices.Equal(gotPlaced[i], placed[i]) {
			t.Fatalf("trace %d placed on %q, sent %q", i, gotPlaced[i], placed[i])
		}
	}
	if _, _, _, err := splitItems(body, false); err == nil {
		t.Fatal("a placed body of three traces split as id/blob pairs")
	}
	if _, _, _, err := splitItems(bytes.Join(itemParts(ids[:2], blobs[:2], nil), nil), true); err == nil {
		t.Fatal("a pair body of two traces split as placed triples")
	}
}

// TestParseFrameIncremental feeds a frame one byte at a time: every
// prefix must report "need more" (consumed 0, nil error) and only the
// complete buffer parses.
func TestParseFrameIncremental(t *testing.T) {
	enc := AppendFrame(nil, &Frame{Op: OpStats, RequestID: "abc", Traceparent: "00-1-2-01", Body: []byte("hello")})
	for i := 0; i < len(enc); i++ {
		_, n, err := ParseFrame(enc[:i])
		if err != nil {
			t.Fatalf("prefix %d/%d: unexpected error %v", i, len(enc), err)
		}
		if n != 0 {
			t.Fatalf("prefix %d/%d: parsed a partial frame", i, len(enc))
		}
	}
	if _, n, err := ParseFrame(enc); err != nil || n != len(enc) {
		t.Fatalf("full buffer: n=%d err=%v", n, err)
	}
}

// TestParseFrameBackToBack parses two frames from one buffer, the shape
// serveConn sees when a peer pipelines.
func TestParseFrameBackToBack(t *testing.T) {
	buf := AppendFrame(nil, &Frame{Op: OpPing, Body: []byte("one")})
	buf = AppendFrame(buf, &Frame{Op: OpStats, Body: []byte("two")})
	f1, n1, err := ParseFrame(buf)
	if err != nil || string(f1.Body) != "one" {
		t.Fatalf("first frame: %v %q", err, f1.Body)
	}
	f2, n2, err := ParseFrame(buf[n1:])
	if err != nil || string(f2.Body) != "two" {
		t.Fatalf("second frame: %v %q", err, f2.Body)
	}
	if n1+n2 != len(buf) {
		t.Fatalf("consumed %d of %d", n1+n2, len(buf))
	}
}

func TestParseFrameRejectsMalformed(t *testing.T) {
	// Declared length below the op+status+ridLen+tpLen minimum.
	short := binary.LittleEndian.AppendUint32(nil, 3)
	short = append(short, 0, 0, 0)
	if _, _, err := ParseFrame(short); err == nil {
		t.Error("undersized frame length accepted")
	}
	// Declared length above the cap.
	huge := binary.LittleEndian.AppendUint32(nil, MaxFrameBytes+1)
	if _, _, err := ParseFrame(huge); err == nil {
		t.Error("oversized frame length accepted")
	}
	// Request-id length field pointing past the frame end.
	bad := AppendFrame(nil, &Frame{Op: OpPing, RequestID: "rid", Body: []byte("x")})
	binary.LittleEndian.PutUint16(bad[6:], 60000)
	if _, _, err := ParseFrame(bad); err == nil {
		t.Error("request-id overrun accepted")
	}
}

func TestBlobsRoundTrip(t *testing.T) {
	var body []byte
	blobs := [][]byte{[]byte("alpha"), {}, []byte("gamma-gamma")}
	for _, b := range blobs {
		body = AppendBlob(body, b)
	}
	got, err := SplitBlobs(body, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blobs) {
		t.Fatalf("got %d blobs, want %d", len(got), len(blobs))
	}
	for i := range blobs {
		if !bytes.Equal(got[i], blobs[i]) {
			t.Errorf("blob %d: %q != %q", i, got[i], blobs[i])
		}
	}
	if _, err := SplitBlobs([]byte{1, 0}, 1); err == nil {
		t.Error("truncated blob length accepted")
	}
	if _, err := SplitBlobs(binary.LittleEndian.AppendUint32(nil, 100), 1); err == nil {
		t.Error("blob overrun accepted")
	}
}

// TestSplitBlobsItemCap: a body of nothing but zero-length blobs is four
// bytes an item on the wire and a slice header each in memory. SplitBlobs
// stops at its caller's cap instead of building the six-fold list.
func TestSplitBlobsItemCap(t *testing.T) {
	body := make([]byte, 4*(1<<20)) // 1 Mi empty blobs
	if got, err := SplitBlobs(body[:4*maxPairBlobs], maxPairBlobs); err != nil || len(got) != maxPairBlobs {
		t.Fatalf("a body at the cap: %d blobs, %v", len(got), err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := SplitBlobs(body, maxPairBlobs)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a body past the cap was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(body))/8 {
		t.Fatalf("rejecting a %d byte body allocated %d bytes", len(body), grew)
	}
}

// one is parseResultPush for a body that must hold exactly one result.
func one(t *testing.T, body []byte) (id, fp string, record []byte) {
	t.Helper()
	got, err := parseResultPush(body)
	if err != nil || len(got) != 1 {
		t.Fatalf("parseResultPush: %d results, err %v", len(got), err)
	}
	return got[0].id, got[0].fp, got[0].record
}

// TestResultPushBody: the push body carries a result record as opaque
// bytes — a binary head, newlines, whatever it holds — as many results
// as the sender had queued, and the JSON body of a node that predates it
// still parses, to the document it embeds.
func TestResultPushBody(t *testing.T) {
	id, fp := strings.Repeat("ab", 32), "cfg-0123"
	record := append([]byte{0x7b, 0x00, 0xff, 0x22, 0, 0, 0, 0x80}, "{\n  \"job_id\": 1\n}\n"...)
	body := appendResultPush(nil, id, fp, record)
	if gotID, gotFP, got := one(t, body); gotID != id || gotFP != fp || !bytes.Equal(got, record) {
		t.Fatalf("round trip: %q %q %q", gotID, gotFP, got)
	}
	old := []byte(`{"id":"` + id + `","fp":"` + fp + `","result":{"job_id":1,"categories":["write_on_end"]}}`)
	if gotID, gotFP, got := one(t, old); gotID != id || gotFP != fp || string(got) != `{"job_id":1,"categories":["write_on_end"]}` {
		t.Fatalf("legacy body: %q %q %q", gotID, gotFP, got)
	}
	id2 := strings.Repeat("cd", 32)
	two, err := parseResultPush(appendResultPush(bytes.Clone(body), id2, fp, nil))
	if err != nil || len(two) != 2 || two[0].id != id || !bytes.Equal(two[0].record, record) ||
		two[1].id != id2 || two[1].fp != fp || len(two[1].record) != 0 {
		t.Fatalf("two results in one body: %+v, err %v", two, err)
	}
	var full []byte
	for i := 0; i <= maxPushBatch; i++ {
		full = appendResultPush(full, id, fp, record)
	}
	for name, bad := range map[string][]byte{
		"empty":          nil,
		"two blobs":      AppendBlob(AppendBlob(nil, []byte(id)), []byte(fp)),
		"four blobs":     AppendBlob(bytes.Clone(body), []byte("extra")),
		"cut short":      body[:len(body)-3],
		"past the batch": full,
		"legacy, cut":    old[:len(old)-5],
		"legacy, typed":  []byte(`{"id":7}`),
	} {
		if got, err := parseResultPush(bad); err == nil || got != nil {
			t.Errorf("%s: accepted as %d results, err %v", name, len(got), err)
		}
	}
}

// maxPairBlobs is the blob cap of an id/blob pair body (OpIngest,
// OpReplicate).
const maxPairBlobs = 2 * maxTraceItems
