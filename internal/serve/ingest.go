package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// The write path (DESIGN.md §8 draws it). Every upload — a raw body, a
// multipart part or a length-prefixed frame, on either ingest route, on
// a standalone node or on the ring, first hop or forwarded — takes the
// same steps: a body reader makes it an upload, ingest content-addresses
// it, persist stores it and queueGroup queues its ID. The ring is one
// step on that path (clusterNode.route, between the two: it places every
// copy the ack waits for), not a path of its own.
// Until a worker reads it back from the store, a trace is bytes: no
// darshan.Job is built for a canonical upload, and none is ever queued.

// Ingest item statuses reported per uploaded trace.
const (
	StatusAccepted   = "accepted"   // queued for categorization
	StatusCached     = "cached"     // result already stored: cache hit
	StatusPending    = "pending"    // same trace already queued or in flight
	StatusRejected   = "rejected"   // queue full: retry later
	StatusUnreadable = "unreadable" // blob did not decode as a trace
)

// IngestItem is the per-trace outcome of one ingest request. RequestID
// echoes the originating request's correlation ID into every per-item
// status, so a batch response's items remain correlatable after the
// client has fanned them out.
type IngestItem struct {
	Name      string        `json:"name,omitempty"`
	ID        store.TraceID `json:"id,omitempty"`
	Status    string        `json:"status"`
	Error     string        `json:"error,omitempty"`
	RequestID string        `json:"request_id,omitempty"`
}

// BatchContentType is the length-prefixed concatenation encoding of a
// request body: repeated [u32 little-endian blob length][blob] frames.
// Multipart bodies are accepted too; this framing exists for clients
// that stream traces without multipart overhead.
const BatchContentType = "application/x-mosaic-batch"

// maxBatchItems caps the traces in one request, bounding the memory a
// single request can pin.
const maxBatchItems = 1024

// AppendBatchFrame appends one blob to a length-prefixed batch body:
// the client-side encoder for BatchContentType.
func AppendBatchFrame(dst, blob []byte) []byte { return ring.AppendBlob(dst, blob) }

// upload is one named blob extracted from an ingest request body.
type upload struct {
	name string
	data []byte
}

// ---- HTTP handlers ----

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) { s.serveIngest(w, r, false) }

func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) { s.serveIngest(w, r, true) }

// serveIngest is both ingest routes: read the body into uploads by its
// content type, run them down the write path, answer per item. The
// routes differ in two things: POST /v1/traces:batch counts itself in
// the batch metrics, and it refuses a body that is neither multipart nor
// framed where POST /v1/traces takes it for one raw trace.
func (s *Server) serveIngest(w http.ResponseWriter, r *http.Request, batch bool) {
	start := time.Now()
	defer func() { s.ingestSecs.Observe(time.Since(start).Seconds()) }()
	s.ingestRequests.Inc()
	if batch {
		s.batchRequests.Inc()
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
		return
	}
	var (
		ups []upload
		bad []IngestItem
		err error
	)
	ct := r.Header.Get("Content-Type")
	switch {
	case strings.HasPrefix(ct, "multipart/"):
		ups, bad, err = s.readMultipartUploads(r)
	case strings.HasPrefix(ct, BatchContentType):
		body := io.Reader(r.Body)
		if r.ContentLength >= 0 {
			body = &io.LimitedReader{R: r.Body, N: r.ContentLength}
		}
		ups, err = readBatchFrames(body, s.maxUpload)
	case batch:
		writeJSON(w, http.StatusUnsupportedMediaType, errorResponse{
			Error: "batch ingest accepts multipart/form-data or " + BatchContentType})
		return
	default:
		var data []byte
		var pooled *[]byte
		data, pooled, err = s.readUpload(r)
		defer releaseUpload(pooled)
		if err == nil && int64(len(data)) > s.maxUpload {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("trace exceeds %d byte upload limit", s.maxUpload)})
			return
		}
		if err == nil && len(data) == 0 {
			err = errors.New("empty request body")
		}
		ups = []upload{{data: data}}
	}
	reqtrace.AddSpan(r.Context(), "ingest.read", start, time.Since(start)) // ingest.decode counts the bytes
	if err == nil && len(ups)+len(bad) == 0 {
		err = errors.New("no traces in request")
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if batch {
		s.batchTraces.Observe(float64(len(ups) + len(bad)))
	}
	s.finishIngest(w, r, s.ingest(r.Context(), RequestIDFrom(r.Context()), ups, bad))
}

// finishIngest tallies per-item status metrics and writes the ingest
// response: 200 when all items resolved, 202 when any is queued, 429
// (with Retry-After) when the bounded queue rejected any — items already
// accepted in the same request stay accepted.
func (s *Server) finishIngest(w http.ResponseWriter, r *http.Request, items []IngestItem) {
	code := http.StatusOK
	rejected := false
	reqID := RequestIDFrom(r.Context())
	for i, it := range items {
		items[i].RequestID = reqID
		s.ingestStatus[it.Status].Inc()
		switch it.Status {
		case StatusRejected:
			rejected = true
		case StatusAccepted, StatusPending:
			if code == http.StatusOK {
				code = http.StatusAccepted
			}
		}
	}
	if rejected {
		// Backpressure: the bounded queue is full. Clients retry later.
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
		s.emitBackpressure(reqID)
	}
	if log := s.reqLog(r); log != nil {
		log.Info("ingest handled", "traces", len(items), "status", code)
	}
	writeJSON(w, code, struct {
		Results []IngestItem `json:"results"`
	}{Results: items})
}

// ---- body readers ----

// uploadBufs pools the buffers raw single-trace bodies are read into. A
// buffer goes back when its handler returns, because nothing down the
// write path keeps the request's bytes: darshan's decoders never alias
// their input, the store copies before it returns, the queue carries
// IDs (a worker reads the stored copy), and the cluster tier
// copies a blob into an RPC body (forward, synchronous replication) or a
// private slice (best-effort replication) first.
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

// frameChunk is the most readBatchFrames allocates for a frame on the
// word of its length prefix alone.
const frameChunk = 64 << 10

// readBatchFrames decodes a length-prefixed batch body. Items are named
// by their position so response entries correlate with request order.
// A frame's buffer follows the bytes that arrive, not the length the
// frame declares: it starts at no more than frameChunk and doubles as it
// fills. When r is an *io.LimitedReader its N is the body's declared
// remainder: a frame that cannot fit in it is refused unread, one that
// can is read in a single sized pass. A body that ends inside a frame is
// an error naming what was wanted and what there was, never a short item.
func readBatchFrames(r io.Reader, maxItem int64) ([]upload, error) {
	declared, _ := r.(*io.LimitedReader)
	var ups []upload
	var hdr [4]byte
	for {
		if n, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return ups, nil
			}
			return nil, fmt.Errorf("frame %d: want a 4 byte length, body holds %d", len(ups), n)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		if n > maxItem {
			return nil, fmt.Errorf("frame %d exceeds %d byte trace limit", len(ups), maxItem)
		}
		if len(ups) >= maxBatchItems {
			return nil, fmt.Errorf("batch exceeds %d traces", maxBatchItems)
		}
		size := min(n, frameChunk)
		if declared != nil {
			if n > declared.N {
				return nil, fmt.Errorf("frame %d: want %d bytes, body holds %d", len(ups), n, declared.N)
			}
			size = n
		}
		blob := make([]byte, size)
		for got := int64(0); ; {
			m, err := io.ReadFull(r, blob[got:])
			got += int64(m)
			if err != nil {
				return nil, fmt.Errorf("frame %d: want %d bytes, body holds %d", len(ups), n, got)
			}
			if got == n {
				break
			}
			blob = append(blob, make([]byte, min(got, n-got))...)
		}
		ups = append(ups, upload{name: fmt.Sprintf("frame-%d", len(ups)), data: blob})
	}
}

// readMultipartUploads collects every part of a multipart ingest body.
// Oversized parts become unreadable items rather than failing the
// request; a hard error aborts it.
func (s *Server) readMultipartUploads(r *http.Request) ([]upload, []IngestItem, error) {
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, nil, err
	}
	var ups []upload
	var bad []IngestItem
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			return ups, bad, nil
		}
		if err != nil {
			return nil, nil, err
		}
		name := part.FileName()
		if name == "" {
			name = part.FormName()
		}
		data, err := io.ReadAll(io.LimitReader(part, s.maxUpload+1))
		part.Close()
		if err != nil {
			return nil, nil, err
		}
		if int64(len(data)) > s.maxUpload {
			bad = append(bad, IngestItem{Name: name, Status: StatusUnreadable,
				Error: fmt.Sprintf("trace exceeds %d byte upload limit", s.maxUpload)})
			continue
		}
		if len(ups)+len(bad) >= maxBatchItems {
			return nil, nil, fmt.Errorf("batch exceeds %d traces", maxBatchItems)
		}
		ups = append(ups, upload{name: name, data: data})
	}
}

// ---- decode, persist, queue ----

// routedItem is one content-addressed upload on its way to the store and
// the queue, annotated with its slot in the response so a group can be
// split per ring owner and still answer in request order.
type routedItem struct {
	idx  int // slot in the response
	name string
	id   store.TraceID // content address of blob, computed once at the entry node
	blob []byte        // canonical encoding; it aliases the request's upload buffer
	// (a canonical upload is its own blob) or, on the inbound RPC path, the
	// connection read buffer, and is only valid until the handler returns —
	// anything shipped asynchronously copies it first (see replicate).
}

// ingest runs one request's uploads down the write path and returns
// items — what the body reader already refused — extended by one entry
// per upload, in upload order. Every upload is checked and
// content-addressed here, once, under one "ingest.decode" span
// (decodeUpload: a canonical upload is walked, any other decoded); the
// readable ones form one group, which the ring routes to its owners or,
// on a standalone node, is ingested where it stands.
func (s *Server) ingest(ctx context.Context, reqID string, ups []upload, items []IngestItem) []IngestItem {
	base := len(items)
	items = append(items, make([]IngestItem, len(ups))...)
	out := items[base:]
	// A single upload's group stays on the stack.
	var one [1]routedItem
	group := one[:0]
	if len(ups) > len(one) {
		group = make([]routedItem, 0, len(ups))
	}
	dstart := time.Now()
	size := 0
	for i, up := range ups {
		size += len(up.data)
		id, blob, err := decodeUpload(up.data)
		if err != nil {
			out[i] = IngestItem{Name: up.name, Status: StatusUnreadable, Error: err.Error()}
			continue
		}
		group = append(group, routedItem{idx: i, name: up.name, id: id, blob: blob})
	}
	reqtrace.AddSpan(ctx, "ingest.decode", dstart, time.Since(dstart),
		reqtrace.Int("bytes", int64(size)), reqtrace.Int("traces", int64(len(group))))
	switch {
	case len(group) == 0:
	case s.cluster != nil:
		s.cluster.route(ctx, reqID, group, nil, out)
	case s.persist(ctx, group, out):
		s.queueGroup(ctx, reqID, group, out)
	}
	return items
}

// persist makes a group of traces durable: one keyed store write
// acknowledged by one group-committed fsync (one store.commit span
// covering every frame). Durability comes before acknowledgment: once
// the blobs are stored the traces survive any crash (backfill completes
// them), whatever the queue then says. It reports whether the group was
// persisted; when not, every item is rejected with the store's error.
func (s *Server) persist(ctx context.Context, group []routedItem, out []IngestItem) bool {
	// A single trace's id and blob stay on the stack.
	ids, blobs := make([]store.TraceID, 0, 1), make([][]byte, 0, 1)
	if len(group) > 1 {
		ids, blobs = make([]store.TraceID, 0, len(group)), make([][]byte, 0, len(group))
	}
	for _, it := range group {
		ids, blobs = append(ids, it.id), append(blobs, it.blob)
	}
	if _, err := s.st.PutTraceBatchKeyedCtx(ctx, ids, blobs); err != nil {
		for _, it := range group {
			out[it.idx] = IngestItem{Name: it.name, ID: it.id, Status: StatusRejected, Error: err.Error()}
		}
		return false
	}
	return true
}

// queueGroup queues a persisted group, queueTrace per item.
func (s *Server) queueGroup(ctx context.Context, reqID string, group []routedItem, out []IngestItem) {
	for _, it := range group {
		// A named item — a part, a frame, a forwarded blob — gets its own
		// span under the request's: queue admission happens inside it, so
		// the queued categorization (and everything the worker later
		// records) parents off this span, not the shared root, and the span
		// tree keeps the items of a request distinguishable.
		ictx, isp := ctx, (*reqtrace.ActiveSpan)(nil)
		if it.name != "" {
			ictx, isp = reqtrace.StartSpan(ctx, "item:"+it.name, reqtrace.Str("id", string(it.id)))
		}
		out[it.idx] = s.queueTrace(ictx, it.name, it.id, reqID)
		isp.SetAttr(reqtrace.Str("status", out[it.idx].Status))
		isp.End()
	}
}

// queueTrace runs the post-persistence tail of an ingest: cache-hit
// check, pending dedup, then a non-blocking enqueue of the ID (a full
// queue is the service's backpressure). The trace blob is already
// durable, and the worker reads it back. A traced request holds one
// trace reference per accepted job, released by the worker — that is
// what keeps the trace open (and out of the flight recorder) until its
// async work lands.
func (s *Server) queueTrace(ctx context.Context, name string, id store.TraceID, reqID string) IngestItem {
	if s.st.HasResult(id, s.fp) {
		s.cacheHits.Inc()
		return IngestItem{Name: name, ID: id, Status: StatusCached}
	}
	if !s.markPending(id) {
		return IngestItem{Name: name, ID: id, Status: StatusPending}
	}
	j := ingestJob{id: id, reqID: reqID, enq: time.Now()}
	if t, parent, ok := reqtrace.FromContext(ctx); ok {
		t.Hold()
		j.t, j.parent = t, parent
	}
	select {
	case s.queue <- j:
		s.queueDepth.Inc()
		return IngestItem{Name: name, ID: id, Status: StatusAccepted}
	default:
		if j.t != nil {
			j.t.Release()
		}
		s.unmarkPending(id)
		return IngestItem{Name: name, ID: id, Status: StatusRejected, Error: "ingest queue full"}
	}
}

// backfill enqueues every stored trace lacking a result under the
// current fingerprint — crash healing and config-change re-analysis
// ride the same queue as fresh ingests. It queues IDs, reading nothing:
// the workers read each blob as they do a fresh ingest's, and a blob
// that does not decode is a failure the result route reports. The IDs go
// in log order, so on a cold store those reads sweep the segments front
// to back.
func (s *Server) backfill() {
	defer s.backfillWG.Done()
	queued := 0
	s.st.EachTraceID(func(id store.TraceID) bool {
		if s.st.HasResult(id, s.fp) || !s.markPending(id) {
			return true
		}
		select {
		case s.queue <- ingestJob{id: id, reqID: "backfill", enq: time.Now()}:
			s.queueDepth.Inc()
			queued++
			return true
		case <-s.quit:
			s.unmarkPending(id)
			return false
		}
	})
	if queued > 0 && s.log != nil {
		s.log.Info("backfill queued", "traces", queued, "fingerprint", s.fp)
	}
}
