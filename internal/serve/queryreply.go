package serve

import (
	"context"
	"net/http"
	"strconv"
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/jsontext"
)

// The /v1/query answer is written, not built: it is appended straight
// into a pooled buffer in the layout json.Encoder with a two-space
// indent gives
//
//	struct {
//		Query   string   `json:"query"`
//		Count   int      `json:"count"`
//		Partial bool     `json:"partial,omitempty"`
//		IDs     []string `json:"ids"`
//	}
//
// and the buffer goes to the client whenever it fills. The body is
// byte for byte what that encoder produces (the test suite keeps it as
// the oracle); what is gone is the reflection walk, the second pass
// through the indent state machine and two buffers the size of the
// answer.

// queryReplyBufSize bounds the memory an answer of any length holds
// while it is being written.
const queryReplyBufSize = 64 << 10

var queryReplyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, queryReplyBufSize)
	return &b
}}

// queryReply is one answer to write.
type queryReply struct {
	Query   string
	Count   int
	Partial bool
	IDs     []string // nil is written as null, as encoding/json does
	// Plain is the index's word that no ID holds a byte JSON would
	// escape; without it each ID is checked on its way out.
	Plain bool
}

// writeQueryReply sends the answer with status 200 and returns the body
// bytes handed to w. It stops at the first failed Write, or at the
// first flush that finds ctx done: a client that left is not encoded
// for.
func writeQueryReply(ctx context.Context, w http.ResponseWriter, qr queryReply) (int64, error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	bufp := queryReplyBufs.Get().(*[]byte)
	defer queryReplyBufs.Put(bufp)
	var written int64
	flush := func(b []byte) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return b[:0], err
		}
		n, err := w.Write(b)
		written += int64(n)
		return b[:0], err
	}

	b := append((*bufp)[:0], "{\n  \"query\": "...)
	b = jsontext.AppendString(b, qr.Query, false)
	b = append(b, ",\n  \"count\": "...)
	b = strconv.AppendInt(b, int64(qr.Count), 10)
	if qr.Partial {
		b = append(b, ",\n  \"partial\": true"...)
	}
	b = append(b, ",\n  \"ids\": "...)
	switch {
	case qr.IDs == nil:
		b = append(b, "null"...)
	case len(qr.IDs) == 0:
		b = append(b, "[]"...)
	default:
		sep := "[\n    "
		for _, id := range qr.IDs {
			// Room for the separator, both quotes and the tail, so only
			// an ID that needs escaping can outgrow the buffer.
			if len(b)+len(id)+16 > queryReplyBufSize && len(b) > 0 {
				var err error
				if b, err = flush(b); err != nil {
					return written, err
				}
			}
			b = append(b, sep...)
			b = jsontext.AppendString(b, id, qr.Plain)
			sep = ",\n    "
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, "\n}\n"...)
	_, err := flush(b)
	return written, err
}
