package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// The upload edge: one trace crosses it once. Its body is read once
// into a buffer sized from Content-Length, decoded once, hashed once,
// and handed to the store's keyed put, which copies it once into the
// staging buffer. Nothing past this file retains the request's bytes:
// darshan's decoders never alias their input, the store copies before it
// returns, and the cluster tier copies a blob into an RPC body (forward,
// synchronous replication) or a private slice (best-effort replication)
// before the handler that read it returns. That is what lets the read
// buffer go back to a pool when the handler does.

// uploadBufs pools the buffers raw single-trace bodies are read into.
var uploadBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledUpload bounds what is returned to uploadBufs, the retention
// rule of darshan's pools: one giant upload must not pin its buffer for
// the process lifetime.
const maxPooledUpload = 8 << 20

// readUpload reads a raw-body upload. A declared Content-Length within
// the upload limit is read in one pass into a pooled buffer of exactly
// that size; the caller hands the returned token to releaseUpload once
// nothing reads data any more. A body without a declared length
// (chunked), or with one past the limit, takes the limited ReadAll —
// the caller's size check then answers as it always has.
func (s *Server) readUpload(r *http.Request) (data []byte, pooled *[]byte, err error) {
	n := r.ContentLength
	if n <= 0 || n > s.maxUpload {
		data, err = io.ReadAll(io.LimitReader(r.Body, s.maxUpload+1))
		return data, nil, err
	}
	bp := uploadBufs.Get().(*[]byte)
	if int64(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	data = (*bp)[:n]
	if _, err := io.ReadFull(r.Body, data); err != nil {
		releaseUpload(bp)
		return nil, nil, err
	}
	return data, bp, nil
}

// releaseUpload returns a readUpload buffer to the pool (nil: the body
// was not pooled).
func releaseUpload(bp *[]byte) {
	if bp == nil {
		return
	}
	if cap(*bp) > maxPooledUpload {
		*bp = nil
	}
	uploadBufs.Put(bp)
}

// decodeBlob parses one trace blob, sniffing the format: MOSD magic →
// binary codec, leading '{' → JSON, otherwise darshan-parser text. A
// decode that yields no file records is rejected — the text parser is
// deliberately lenient about unknown lines, so this is what
// distinguishes a trace from arbitrary text. canonical reports that
// data is byte for byte the job's canonical encoding
// (darshan.DecodeCanonical); only a binary blob can be.
func decodeBlob(data []byte) (j *darshan.Job, canonical bool, err error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	switch {
	case len(data) >= 4 && bytes.Equal(data[:4], darshan.Magic[:]):
		j = new(darshan.Job)
		canonical, err = darshan.DecodeCanonical(j, data)
	case len(trimmed) > 0 && trimmed[0] == '{':
		j, err = darshan.ReadJSON(bytes.NewReader(data))
	default:
		j, err = darshan.ReadParserText(bytes.NewReader(data))
	}
	if err != nil {
		return nil, false, err
	}
	if len(j.Records) == 0 {
		return nil, false, errors.New("trace holds no file records")
	}
	return j, canonical, nil
}

// decodeUpload decodes one uploaded trace and content-addresses it: id
// is what store.TraceKey gives the decoded job, blob the canonical
// encoding to persist under it. An upload that already is that encoding
// — raw-body current-version MOSD, what darshan.MarshalBinary writes —
// is its own blob (aliasing data) and one hash of it is the ID; every
// other accepted encoding (gzip .mosd, JSON, darshan-parser text, old
// versions, unsorted metadata) is re-encoded by store.TraceKey. Either
// way this is the blob's one SHA-256 pass: every ingest path hands the
// ID on to the store's keyed put.
func decodeUpload(data []byte) (job *darshan.Job, id store.TraceID, blob []byte, err error) {
	job, canonical, err := decodeBlob(data)
	if err != nil {
		return nil, "", nil, err
	}
	if canonical {
		return job, store.HashBytes(data), data, nil
	}
	id, blob, err = store.TraceKey(job)
	if err != nil {
		return nil, "", nil, err
	}
	return job, id, blob, nil
}
