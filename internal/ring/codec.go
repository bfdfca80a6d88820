package ring

import (
	"encoding/binary"
	"fmt"
)

// The cluster's one wire format: a length-prefixed binary frame that
// carries every inter-node operation — ingest forwarding, replication,
// scatter-gather queries, health probes and the dist categorize RPC.
// The codec is incremental in the style of snail's frame parser: a
// parse attempt over a partial buffer returns consumed == 0 ("need
// more bytes") instead of an error, so connection loops can read into
// a growing buffer and peel off complete frames without framing state.
//
// Layout (all integers little-endian):
//
//	[u32 length]      length of everything after this field
//	[u8  op]          operation code (request) — echoed in the response
//	[u8  status]      StatusOK / StatusError / StatusNotFound
//	[u16 ridLen][rid]            X-Request-Id, propagated on every hop
//	[u16 tpLen][traceparent]     W3C trace context, propagated likewise
//	[body]            operation-specific payload
//
// Request and response share the layout; a response's body carries the
// result (or, under StatusError, a UTF-8 error message).

// Frame statuses.
const (
	StatusOK       = 0
	StatusError    = 1
	StatusNotFound = 2
)

// Operation codes. Opcode 16 (remote categorization) is retired and
// never reused: a peer that still sends it gets the unknown-op error.
const (
	OpPing       = 1
	OpIngest     = 2
	OpReplicate  = 3
	OpQuery      = 4
	OpStats      = 5
	OpResult     = 6
	OpTable      = 7
	OpResultPush = 8

	// OpStatus returns the node's StatusSnapshot — the per-node health
	// document /v1/cluster/health scatter-gathers.
	OpStatus = 9
	// OpMetricsSnap returns the node's full metrics registry export
	// (JSON-encoded telemetry family snapshots) for federation.
	OpMetricsSnap = 10
	// OpIngestPlaced is OpIngest from a sender that has placed follower
	// copies itself: each trace's id and blob are followed by the list of
	// followers it already copied the blob to, and the owner places only
	// the rest. A node that predates it answers the unknown-op error.
	OpIngestPlaced = 11
)

// MaxFrameBytes bounds one frame: a whole replication batch rides in
// one frame, so the cap mirrors the serve tier's batch ceiling (1024
// traces × 256 MiB would not fit anything, but real batches are far
// smaller; 512 MiB leaves headroom over the default single-upload cap).
const MaxFrameBytes = 512 << 20

// frameOverhead is the fixed per-frame byte count outside rid/tp/body:
// the length prefix plus op, status and the two u16 length fields.
const frameOverhead = 4 + 1 + 1 + 2 + 2

// Frame is one decoded RPC frame.
type Frame struct {
	Op          byte
	Status      byte
	RequestID   string
	Traceparent string
	Body        []byte
}

// AppendFrame encodes f onto dst and returns the extended slice.
func AppendFrame(dst []byte, f *Frame) []byte {
	return appendFrame(dst, f, 0)
}

// appendFrame is AppendFrame for a frame whose body continues past
// f.Body with tail more bytes that the caller writes itself, straight
// after what this returns: the length prefix counts them.
func appendFrame(dst []byte, f *Frame, tail int) []byte {
	n := 1 + 1 + 2 + len(f.RequestID) + 2 + len(f.Traceparent) + len(f.Body) + tail
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, f.Op, f.Status)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.RequestID)))
	dst = append(dst, f.RequestID...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Traceparent)))
	dst = append(dst, f.Traceparent...)
	return append(dst, f.Body...)
}

// ParseFrame attempts to decode one frame from the front of buf.
// It returns the decoded frame and how many bytes it consumed;
// consumed == 0 with a nil error means buf holds an incomplete frame —
// read more and retry. The frame's strings are copies, but Body
// aliases buf: callers that retain it past the next buffer reuse must
// copy.
func ParseFrame(buf []byte) (Frame, int, error) {
	var f Frame
	if len(buf) < 4 {
		return f, 0, nil
	}
	n := binary.LittleEndian.Uint32(buf)
	if n < 6 {
		return f, 0, fmt.Errorf("ring: frame length %d below minimum", n)
	}
	if n > MaxFrameBytes {
		return f, 0, fmt.Errorf("ring: frame length %d exceeds %d byte cap", n, MaxFrameBytes)
	}
	if uint32(len(buf)-4) < n {
		return f, 0, nil
	}
	p := buf[4 : 4+n]
	f.Op, f.Status = p[0], p[1]
	p = p[2:]
	ridLen := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if len(p) < ridLen+2 {
		return f, 0, fmt.Errorf("ring: frame request-id overruns frame")
	}
	f.RequestID = string(p[:ridLen])
	p = p[ridLen:]
	tpLen := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if len(p) < tpLen {
		return f, 0, fmt.Errorf("ring: frame traceparent overruns frame")
	}
	f.Traceparent = string(p[:tpLen])
	f.Body = p[tpLen:]
	return f, 4 + int(n), nil
}

// AppendBlob appends one length-prefixed blob, [u32 length][bytes], to
// a blob list: the body format of the multi-part operations and of the
// serve tier's x-mosaic-batch uploads alike.
func AppendBlob(dst, blob []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blob)))
	return append(dst, blob...)
}

// maxTraceItems caps the traces of one OpIngest, OpIngestPlaced or
// OpReplicate body at the largest batch the HTTP edge accepts (1024
// traces; hint replay ships 64 at a time). A trace is two blobs, an id
// and its blob, or three with the placed list of OpIngestPlaced.
const maxTraceItems = 1024

// maxPlacedFollowers caps one trace's placed list: no replica set is
// larger.
const maxPlacedFollowers = 64

// SplitBlobs decodes a frame body of length-prefixed blobs, rejecting
// one that holds more than maxItems: each blob costs a 24-byte slice
// header here however short it is on the wire, so the caller states how
// many its operation can carry. The returned slices alias body.
func SplitBlobs(body []byte, maxItems int) ([][]byte, error) {
	var out [][]byte
	for len(body) > 0 {
		if len(body) < 4 {
			return nil, fmt.Errorf("ring: truncated blob length at item %d", len(out))
		}
		if len(out) == maxItems {
			return nil, fmt.Errorf("ring: body holds more than %d blobs", maxItems)
		}
		n := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if n > len(body) {
			return nil, fmt.Errorf("ring: blob %d length %d overruns body", len(out), n)
		}
		out = append(out, body[:n])
		body = body[n:]
	}
	return out, nil
}
