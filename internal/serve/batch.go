package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// Batch ingest: POST /v1/traces:batch amortizes the per-request costs
// of ingest — format sniffing, decode, content addressing, and (under
// a Sync store) the fsync — across every trace in the request. One
// store write and one group-committed fsync cover the whole batch,
// which is what makes saturating a cluster's trace firehose feasible
// where one-request-per-trace ingest caps out on disk flushes.

// BatchContentType is the length-prefixed concatenation encoding of a
// batch body: repeated [u32 little-endian blob length][blob] frames.
// Multipart bodies are accepted too; this framing exists for clients
// that stream traces without multipart overhead.
const BatchContentType = "application/x-mosaic-batch"

// maxBatchItems caps the traces in one batch request, bounding the
// memory a single request can pin.
const maxBatchItems = 1024

// AppendBatchFrame appends one blob to a length-prefixed batch body:
// the client-side encoder for BatchContentType.
func AppendBatchFrame(dst, blob []byte) []byte { return ring.AppendBlob(dst, blob) }

// upload is one named blob extracted from an ingest request body.
type upload struct {
	name string
	data []byte
}

// readBatchFrames decodes a length-prefixed batch body. Items are named
// by their position so response entries correlate with request order.
func readBatchFrames(r io.Reader, maxItem int64) ([]upload, error) {
	var ups []upload
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return ups, nil
			}
			return nil, fmt.Errorf("reading frame %d length: %w", len(ups), err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		if n > maxItem {
			return nil, fmt.Errorf("frame %d exceeds %d byte trace limit", len(ups), maxItem)
		}
		if len(ups) >= maxBatchItems {
			return nil, fmt.Errorf("batch exceeds %d traces", maxBatchItems)
		}
		blob := make([]byte, n)
		if _, err := io.ReadFull(r, blob); err != nil {
			return nil, fmt.Errorf("reading frame %d (%d bytes): %w", len(ups), n, err)
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

// handleIngestBatch ingests many traces in one request. All blobs are
// decoded and content-addressed first, then persisted through the
// store's keyed batch put — a single staged write acknowledged by one
// group-committed fsync — and finally
// queued for categorization with the same per-item semantics as the
// single-trace endpoint (cached / pending / accepted / rejected).
func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.ingestSecs.Observe(time.Since(start).Seconds()) }()
	s.ingestRequests.Inc()
	s.batchRequests.Inc()
	reqID := RequestIDFrom(r.Context())
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
		ups, err = readBatchFrames(r.Body, s.maxUpload)
	default:
		writeJSON(w, http.StatusUnsupportedMediaType, errorResponse{
			Error: "batch ingest accepts multipart/form-data or " + BatchContentType})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if len(ups)+len(bad) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "no traces in request"})
		return
	}
	s.batchTraces.Observe(float64(len(ups) + len(bad)))

	if s.cluster != nil {
		// Clustered: the routed path decodes, partitions by ring owner,
		// batch-ingests the local group and forwards the rest.
		items := append(bad, s.cluster.ingestRouted(r.Context(), reqID, ups)...)
		s.finishIngest(w, r, items)
		return
	}

	// Decode everything up front; the canonical encodings of readable
	// traces form one store batch.
	type decoded struct {
		item int // index into items
		job  *darshan.Job
	}
	items := make([]IngestItem, 0, len(ups)+len(bad))
	items = append(items, bad...)
	var (
		jobs  []decoded
		ids   []store.TraceID
		blobs [][]byte
	)
	for _, up := range ups {
		job, id, blob, err := decodeUpload(up.data)
		if err != nil {
			items = append(items, IngestItem{Name: up.name, Status: StatusUnreadable, Error: err.Error()})
			continue
		}
		items = append(items, IngestItem{Name: up.name, ID: id})
		jobs = append(jobs, decoded{item: len(items) - 1, job: job})
		ids = append(ids, id)
		blobs = append(blobs, blob)
	}
	if len(blobs) > 0 {
		// Durability before acknowledgment, amortized: one write, one
		// group-committed fsync for the entire batch (traced as one
		// store.commit span covering every frame).
		if _, err := s.st.PutTraceBatchKeyedCtx(r.Context(), ids, blobs); err != nil {
			for _, d := range jobs {
				items[d.item].Status = StatusRejected
				items[d.item].Error = err.Error()
			}
			s.finishIngest(w, r, items)
			return
		}
		// One linked per-item span under the batch root: the item's queue
		// admission happens inside it, so its queued categorization (and
		// everything the worker later records) parents off this span, not
		// the shared root — the span tree keeps items distinguishable.
		for _, d := range jobs {
			ictx, isp := reqtrace.StartSpan(r.Context(), "item:"+items[d.item].Name,
				reqtrace.Str("id", string(items[d.item].ID)))
			it := s.queueTrace(ictx, items[d.item].Name, items[d.item].ID, d.job, reqID)
			isp.SetAttr(reqtrace.Str("status", it.Status))
			isp.End()
			items[d.item] = it
		}
	}
	s.finishIngest(w, r, items)
}
