package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// ingestJob is one queued categorization: the ID of a stored trace, whose
// durable copy the worker reads back — ingest, backfill and repair queue
// the same thing. reqID names the HTTP request (or synthetic origin, e.g.
// "backfill") that enqueued it, so worker log lines correlate with the
// ingest request that caused them. When the enqueuing request was traced,
// t carries its trace (one reference held until the worker finishes) and
// parent the span to hang the worker's spans under; enq timestamps
// admission for the queue-wait span and histogram.
type ingestJob struct {
	id     store.TraceID
	reqID  string
	t      *reqtrace.Trace
	parent reqtrace.SpanID
	enq    time.Time
}

// traceReader is what one worker reuses from trace to trace: the buffer
// it reads stored blobs into and the job it decodes them into. It is
// never queued or shared, so memory is O(workers), not O(queue depth).
type traceReader struct {
	buf []byte
	job darshan.Job
}

// errStoredBlob marks a worker failure that is the store's: the queued
// trace's blob could not be read back. It is counted as failPersist.
var errStoredBlob = errors.New("serve: reading the stored trace")

// read reads the stored blob of id into the reader's buffer and decodes
// it into the reader's job, taking the job's summary in the decoder's
// record walk. The Metadata map is dropped first: a core.Result keeps it
// as its Truth, so each trace gets a map of its own (engine.materialize
// does the same).
func (r *traceReader) read(st *store.Store, id store.TraceID) (darshan.Summary, error) {
	data, ok, err := st.ReadTrace(r.buf, id)
	if err == nil && !ok {
		err = errors.New("not stored")
	}
	if err != nil {
		return darshan.Summary{}, fmt.Errorf("%w %s: %w", errStoredBlob, id, err)
	}
	if cap(data) <= maxPooledUpload { // the upload buffers' retention rule
		r.buf = data
	}
	r.job.Metadata = nil
	sum, err := darshan.DecodeSummarized(&r.job, data)
	if err != nil {
		return darshan.Summary{}, fmt.Errorf("serve: decoding the stored trace %s: %w", id, err)
	}
	return sum, nil
}

// worker drains the ingest queue: each trace is read, validated and
// categorized on this goroutine, into its own traceReader (see
// categorizeTrace), and the outcome is persisted and indexed. Workers
// exit when the queue is closed and drained, or when the run context is
// cancelled (forced shutdown).
func (s *Server) worker() {
	defer s.workerWG.Done()
	var r traceReader
	for {
		select {
		case item, ok := <-s.queue:
			if !ok {
				return
			}
			s.queueDepth.Dec()
			s.process(&r, item)
		case <-s.runCtx.Done():
			return
		}
	}
}

// categorizeTrace is what the engine pipeline does for a corpus of one
// trace, without the pipeline: the funnel of one trace reads its stored
// blob into r's job and applies core.EvictionReason, the rule
// core.Preprocessor applies, to the summary the decoder took of it; its
// Categorize stage is one call into the executor — each a leaf span of
// ctx's request trace. With explained set it also collects the trace's
// explanation, under the server's margin (GET /v1/explain/{id}); the
// labels are the same either way. evicted is the funnel's reason ("": the
// trace was valid); err is a failure to read (wrapping errStoredBlob) or
// decode the blob, a categorization failure, or ctx's error.
func (s *Server) categorizeTrace(ctx context.Context, r *traceReader, id store.TraceID, explained bool) (res *core.Result, expl *explain.Explanation, evicted string, err error) {
	sp := reqtrace.StartLeaf(ctx, "funnel.validate")
	sum, err := r.read(s.st, id)
	sp.SetError(err)
	sp.End()
	if err != nil {
		return nil, nil, "", err
	}
	if evicted = core.EvictionReason(sum.Invalid, nil); evicted != "" {
		return nil, nil, evicted, nil
	}
	job := &r.job
	sp = reqtrace.StartLeaf(ctx, "categorize.exec")
	defer sp.End()
	if explained {
		res, expl, err = s.exec.CategorizeExplained(ctx, job, s.cfg, s.exOpts)
	} else {
		res, err = s.exec.Categorize(ctx, job, s.cfg)
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, "", cerr
		}
		return nil, nil, "", fmt.Errorf("engine: app %s/%s: %w", job.User, job.AppName(), err)
	}
	return res, expl, "", nil
}

// process categorizes one queued trace. For traced jobs it resumes the
// request's trace across the queue boundary — on the server's run
// context, never the (long-cancelled) request context — recording the
// queue wait, a worker span covering the funnel (read, decode, verdict),
// the categorization, the outcome's group commit and the index update,
// then releases the reference held at enqueue so the trace can finalize
// into the flight recorder.
func (s *Server) process(r *traceReader, item ingestJob) {
	defer s.unmarkPending(item.id)
	wait := time.Since(item.enq)
	s.queueWaitSecs.Observe(wait.Seconds())
	ctx := s.runCtx
	if item.t != nil {
		defer item.t.Release()
		item.t.AddCompleted(item.parent, "queue.wait", item.enq, wait)
		ctx = reqtrace.ContextWithParent(s.runCtx, item.t, item.parent)
	}
	ctx, wsp := reqtrace.StartSpan(ctx, "worker.categorize", reqtrace.Str("trace", string(item.id)))
	defer wsp.End()
	start := time.Now()
	result, _, evicted, err := s.categorizeTrace(ctx, r, item.id, false)
	s.categorizeSecs.Observe(time.Since(start).Seconds())
	if wsp != nil && result != nil {
		// Tells a big trace from a slow host.
		wsp.SetAttr(
			reqtrace.Int("raw_ops", int64(result.Read.RawOps+result.Write.RawOps)),
			reqtrace.Int("merged_ops", int64(result.Read.MergedOps+result.Write.MergedOps)))
	}
	switch {
	case s.runCtx.Err() != nil:
		return // forced shutdown: trace blob is durable, next startup backfills
	case err != nil:
		wsp.SetError(err)
		why := failError
		if errors.Is(err, errStoredBlob) {
			why = failPersist
		}
		s.recordFailure(item.id, why, err.Error())
		if s.log != nil {
			s.log.Warn("categorization failed", "request_id", item.reqID, "id", string(item.id), "reason", why, "err", err)
		}
		return
	case evicted != "":
		s.recordFailure(item.id, failEvicted, "evicted by the funnel (corrupted or invalid trace)")
		if s.log != nil {
			s.log.Warn("trace evicted by funnel", "request_id", item.reqID, "id", string(item.id), "reason", evicted)
		}
		return
	}
	// One commit per categorized trace: the result alone (GET
	// /v1/explain/{id} derives the explanation from the blob). A crash
	// before it lands leaves a trace without a result, which backfill
	// re-queues.
	rec, err := s.st.PutOutcomeCtx(ctx, item.id, s.fp, result)
	if err != nil {
		wsp.SetError(err)
		s.recordFailure(item.id, failPersist, err.Error())
		if s.log != nil {
			s.log.Error("persisting result failed", "request_id", item.reqID, "id", string(item.id), "err", err)
		}
		return
	}
	s.cacheMisses.Inc()
	s.ix.AddCtx(ctx, item.id, result.Categories)
	if s.cluster != nil {
		// Replicas never re-categorize: ship them the record just committed.
		s.cluster.pushResult(item.reqID, item.id, rec)
	}
	if s.log != nil {
		s.log.Debug("trace categorized", "request_id", item.reqID, "id", string(item.id),
			"categories", result.Categories.Len(), "dur", time.Since(start))
	}
}
