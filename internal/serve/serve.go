// Package serve turns the batch MOSAIC pipeline into a long-running,
// incrementally updated analysis service. It exposes an HTTP API —
//
//	POST /v1/traces        trace ingest: a raw body, multipart or a
//	                       length-prefixed concatenation — one store
//	                       write + one fsync whatever the body holds
//	POST /v1/traces:batch  the same for multi-trace bodies only, counted
//	                       in the batch metrics
//	GET  /v1/results/{id}  categorization of one trace by content address
//	GET  /v1/query?q=...   boolean category query over the live index
//	GET  /v1/stats         store, index, queue and ingest statistics
//	GET  /metrics          Prometheus exposition   GET /healthz  liveness
//
// — backed by the content-addressed result store (internal/store) and
// the inverted category index (internal/index). Ingested traces are
// persisted synchronously (content addressing makes re-ingest
// idempotent), then categorized asynchronously by the workers of a
// bounded queue — each applies the engine's funnel rule and Categorize
// executor to its one trace directly (worker.go); a full queue answers
// 429 with Retry-After, which is the service's backpressure, exactly
// like a full inter-stage channel throttles the batch engine.
//
// A trace already analyzed under the server's effective configuration
// (store key: trace hash × Config fingerprint) is served from the
// store without re-categorization — the cache-hit fast path. On
// startup the index is rebuilt from the store, and any stored trace
// missing its result under the current fingerprint is backfilled
// through the same queue, so a config change or a crash mid-ingest
// heals automatically.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/cluster"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/debughttp"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/events"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/index"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/store"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// Config configures an analysis server.
type Config struct {
	// Store is the backing result store (required).
	Store *store.Store
	// Analysis holds the detection thresholds; a zero value selects the
	// defaults. Its fingerprint defines result identity.
	Analysis core.Config
	// Workers is the number of ingest workers draining the queue, and of
	// explanations GET /v1/explain/{id} derives at once (<= 0: 2).
	Workers int
	// QueueDepth bounds the ingest queue; a full queue answers 429
	// (<= 0: 256).
	QueueDepth int
	// MaxUploadBytes caps one uploaded trace (<= 0: 256 MiB).
	MaxUploadBytes int64
	// Executor, when non-nil, replaces the in-process Categorize
	// backend.
	Executor engine.Executor
	// Metrics, when non-nil, hosts the serve metrics; nil creates a
	// private registry.
	Metrics *telemetry.Registry
	// Log receives structured request/worker logs (nil: silent).
	Log *slog.Logger
	// NoBackfill disables the startup pass that re-enqueues stored
	// traces lacking a result under the current fingerprint.
	NoBackfill bool
	// Explain is ignored: no explanation is built at ingest, and GET
	// /v1/explain/{id} derives one from the stored trace when asked. The
	// field stays for callers that still set it.
	Explain bool
	// ExplainMargin is the near-miss margin GET /v1/explain/{id}
	// collects evidence with (<= 0: explain.DefaultMargin).
	ExplainMargin float64
	// Flight is the flight recorder receiving completed request traces.
	// nil gets a default in-memory recorder (ring of 256, no dumps) so
	// /debug/requests always works while tracing is on.
	Flight *reqtrace.Recorder
	// DisableTracing turns request tracing off entirely: no trace
	// context at the edge, no spans, no flight recording. The zero value
	// traces — tracing is the default.
	DisableTracing bool
	// SLO, when > 0, is the per-request edge latency target; requests
	// exceeding it increment mosaic_slo_latency_breaches_total{route=}.
	SLO time.Duration
	// Cluster, when non-nil, runs this server as one node of a sharded,
	// replicated cluster (see cluster.go): ingest routes each trace to
	// its consistent-hash owner, queries and stats scatter-gather, and
	// GET /v1/cluster serves the routing table. The config's Log,
	// Registry, Flight and Events fields are filled from the server's
	// own when unset. The caller still provides the RPC listener via
	// ServeCluster.
	Cluster *ring.Config
	// Events is the cluster event journal served on GET /v1/events and
	// fed by the ring, store and serve layers. nil gets a default
	// in-memory journal (ring of 1024, no persistence) so the endpoint
	// always works.
	Events *events.Log
	// DisableAlerts is ignored: the server evaluates no SLO of its own;
	// examples/observability/alerts.rules.yml computes the burn rates
	// from /metrics. The field stays only because bench/layers.go, whose
	// sources are frozen, still sets it.
	DisableAlerts bool
}

// Server is a running analysis service (HTTP handler + worker pool).
type Server struct {
	st  *store.Store
	ix  *index.Index
	cfg core.Config
	fp  string
	log *slog.Logger

	exec       engine.Executor
	maxUpload  int64
	queueCap   int
	queue      chan ingestJob
	quit       chan struct{} // closed on Shutdown: aborts backfill sends
	draining   atomic.Bool
	workerWG   sync.WaitGroup
	backfillWG sync.WaitGroup
	runCtx     context.Context
	runCancel  context.CancelFunc

	cluster *clusterNode // nil in single-node mode

	exOpts explain.Options
	// explainReaders bounds GET /v1/explain/{id}: one reader per worker,
	// so derivations hold no more decoded traces than the workers do.
	explainReaders chan *traceReader

	traceOn     bool
	flight      *reqtrace.Recorder
	onTraceDone func(*reqtrace.Trace) // budget, then flight.Complete, bound once
	slo         time.Duration

	events    *events.Log
	startedAt time.Time
	lastBP    atomic.Int64 // unix nanos of the last backpressure event (rate limit)

	mu      sync.Mutex
	pending map[store.TraceID]struct{} // queued or in-flight
	failed  map[store.TraceID]string   // categorization/funnel failures

	// Metrics.
	reg            *telemetry.Registry
	ingestRequests *telemetry.Counter
	batchRequests  *telemetry.Counter
	batchTraces    *telemetry.Histogram
	ingestStatus   map[string]*telemetry.Counter
	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	queueDepth     *telemetry.Gauge
	queueWaitSecs  *telemetry.Histogram
	routeMetrics   map[string]routeInstruments
	ingestSecs     *telemetry.Histogram
	categorizeSecs *telemetry.Histogram
	failures       map[string]*telemetry.Counter // by failure reason, see recordFailure
	querySecs      *telemetry.Histogram
	queries        *telemetry.Counter
	resultsServed  *telemetry.Counter
	explainsServed *telemetry.Counter
}

// New builds a server over an open store: it rebuilds the category
// index from the store, starts the worker pool, and (unless disabled)
// backfills categorizations missing under the current fingerprint.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("serve: Config.Store is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 256
	}
	maxUpload := cfg.MaxUploadBytes
	if maxUpload <= 0 {
		maxUpload = 256 << 20
	}
	exec := cfg.Executor
	if exec == nil {
		exec = engine.Local{Workers: 1}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	cluster.RegisterMetrics(reg)
	analysis := cfg.Analysis.Normalized()
	s := &Server{
		st:        cfg.Store,
		ix:        index.New(),
		cfg:       analysis,
		fp:        analysis.Fingerprint(),
		log:       cfg.Log,
		exec:      exec,
		maxUpload: maxUpload,
		queueCap:  depth,
		queue:     make(chan ingestJob, depth),
		quit:      make(chan struct{}),
		pending:   make(map[store.TraceID]struct{}),
		failed:    make(map[store.TraceID]string),
		reg:       reg,
		exOpts:    explain.Options{Margin: cfg.ExplainMargin}.Normalized(),
		traceOn:   !cfg.DisableTracing,
		flight:    cfg.Flight,
		slo:       cfg.SLO,
		events:    cfg.Events,
		startedAt: time.Now(),
	}
	s.explainReaders = make(chan *traceReader, workers)
	for range workers {
		s.explainReaders <- new(traceReader)
	}
	if s.events == nil {
		node := ""
		if cfg.Cluster != nil {
			node = cfg.Cluster.Self
		}
		s.events = events.NewLog(events.Config{Node: node, Logger: cfg.Log})
	}
	if s.traceOn && s.flight == nil {
		s.flight = reqtrace.NewRecorder(reqtrace.RecorderConfig{Log: cfg.Log})
	}
	if s.traceOn {
		budget := debughttp.NewBudget(s.reg)
		s.onTraceDone = func(t *reqtrace.Trace) {
			budget.Observe(t)
			s.flight.Complete(t)
		}
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	s.registerMetrics()

	// Crash-recovery findings surface as journal events: a torn segment
	// tail truncated during the store's open is exactly the kind of fact
	// an operator wants in /v1/events after an incident.
	if st := s.st.Stats(); st.DroppedTailBytes > 0 {
		s.events.Emit(events.SevWarn, events.TypeRecoveryTruncation,
			"store recovery truncated a torn segment tail",
			"dropped_bytes", strconv.FormatInt(st.DroppedTailBytes, 10),
			"recovered_frames", strconv.Itoa(st.RecoveredFrames))
	}
	// The hook runs under the store's locks: hand the emit to a
	// goroutine so a slow journal sink never stalls the write path.
	s.st.SetRotateHook(func(segment int) {
		go s.events.Emit(events.SevInfo, events.TypeSegmentRotation,
			"segment rotated", "segment", strconv.Itoa(segment))
	})

	if cfg.Cluster != nil {
		// A ring node's index keeps each trace's placement class beside
		// its category set, from the first entry on: scatter queries count
		// by it (ring/scatter.go). The table is a pure function of the
		// membership, so this one and the cluster's own agree.
		table, err := ring.NewTable(cfg.Cluster.Nodes, cfg.Cluster.VirtualNodes, cfg.Cluster.Replication)
		if err != nil {
			return nil, err
		}
		s.ix.Classify(table.Classes(), func(id store.TraceID) uint16 { return table.Class(string(id)) })
	}
	n, err := s.ix.Rebuild(s.st, s.fp)
	if err != nil {
		return nil, fmt.Errorf("serve: rebuilding index: %w", err)
	}
	if s.log != nil {
		s.log.Info("index rebuilt", "traces", n, "fingerprint", s.fp)
	}
	if cfg.Cluster != nil {
		cn, err := newClusterNode(s, *cfg.Cluster)
		if err != nil {
			return nil, err
		}
		s.cluster = cn
	}
	for w := 0; w < workers; w++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	if !cfg.NoBackfill {
		s.backfillWG.Add(1)
		go s.backfill()
	}
	return s, nil
}

// Events returns the server's event journal.
func (s *Server) Events() *events.Log { return s.events }

func (s *Server) registerMetrics() {
	// Every binary serving /metrics reports build info and Go runtime
	// vitals — the serve handler wires debughttp.MetricsHandler directly,
	// so the runtime bridge is registered here rather than through NewMux.
	debughttp.RegisterRuntimeMetrics(s.reg)
	s.ingestRequests = s.reg.Counter("mosaic_serve_ingest_requests_total", "Ingest HTTP requests received.", nil)
	s.batchRequests = s.reg.Counter("mosaic_serve_batch_requests_total", "Batch ingest HTTP requests received.", nil)
	s.batchTraces = s.reg.Histogram("mosaic_serve_batch_traces", "Traces per batch ingest request.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, nil)
	s.ingestStatus = make(map[string]*telemetry.Counter)
	for _, st := range []string{StatusAccepted, StatusCached, StatusPending, StatusRejected, StatusUnreadable} {
		s.ingestStatus[st] = s.reg.Counter("mosaic_serve_ingested_traces_total",
			"Uploaded traces by ingest outcome.", telemetry.Labels{"status": st})
	}
	s.cacheHits = s.reg.Counter("mosaic_serve_cache_hits_total",
		"Categorizations served from the result store without recomputation.", nil)
	s.cacheMisses = s.reg.Counter("mosaic_serve_cache_misses_total",
		"Categorizations that had to run the detection chain.", nil)
	s.queueDepth = s.reg.Gauge("mosaic_serve_queue_depth", "Traces waiting in the ingest queue.", nil)
	s.queueWaitSecs = s.reg.Histogram("mosaic_serve_queue_wait_seconds",
		"Time a trace spent in the ingest queue before a worker picked it up.", nil, nil)
	s.ingestSecs = s.reg.Histogram("mosaic_serve_ingest_seconds", "Ingest request latency.", nil, nil)
	s.categorizeSecs = s.reg.Histogram("mosaic_serve_categorize_seconds", "Per-trace categorization latency in the worker pool.", nil, nil)
	s.failures = make(map[string]*telemetry.Counter)
	for _, why := range []string{failEvicted, failError, failPersist} {
		s.failures[why] = s.reg.Counter("mosaic_serve_categorize_failures_total",
			"Queued traces that produced no result, by reason.", telemetry.Labels{"reason": why})
	}
	s.querySecs = s.reg.Histogram("mosaic_serve_query_seconds", "Query request latency.", nil, nil)
	s.queries = s.reg.Counter("mosaic_serve_queries_total", "Category queries served.", nil)
	s.resultsServed = s.reg.Counter("mosaic_serve_results_total", "Result lookups served.", nil)
	s.explainsServed = s.reg.Counter("mosaic_serve_explains_total", "Explanation lookups served.", nil)
	if s.traceOn {
		s.registerRouteMetrics()
	}
	s.registerStoreGauges()
	s.registerIndexGauges()
}

// registerStoreGauges exports the store's own counters as mosaic_store_*
// gauges, pulled lazily at scrape time through the registry's OnCollect
// hook — the figures /v1/stats reports become scrapable without a
// per-operation metrics write in the store.
func (s *Server) registerStoreGauges() {
	g := func(name, help string) *telemetry.Gauge {
		return s.reg.Gauge("mosaic_store_"+name, help, nil)
	}
	var (
		traces       = g("traces", "Distinct traces in the store.")
		results      = g("results", "Stored categorization results (all fingerprints).")
		explanations = g("explanations", "Stored explanations (all fingerprints).")
		segments     = g("segments", "Segment files backing the store.")
		diskBytes    = g("disk_bytes", "Bytes on disk across all segments.")
		cacheItems   = g("cache_items", "Entries in the read cache.")
		cacheBytes   = g("cache_bytes", "Bytes held by the read cache.")
		hits         = g("hits_total", "GetResult calls answered from the store.")
		misses       = g("misses_total", "GetResult calls that found nothing.")
		groupSyncs   = g("group_syncs_total", "Fsyncs issued by group-commit leaders.")
		syncedFrames = g("synced_frames_total", "Frames made durable by those fsyncs.")
	)
	// A legacy count that stays above zero is a store from before the
	// served form whose results nothing has rewritten yet: each first
	// read of one pays a conversion.
	form := func(f string) *telemetry.Gauge {
		return s.reg.Gauge("mosaic_store_result_records",
			"Stored results by record form: served (response bytes behind a category mask) or legacy (compact JSON, converted on read).",
			telemetry.Labels{"form": f})
	}
	served, legacy := form("served"), form("legacy")
	s.reg.OnCollect("serve_store_stats", func() {
		st := s.st.Stats()
		traces.Set(float64(st.Traces))
		results.Set(float64(st.Results))
		served.Set(float64(st.Results - st.LegacyResults))
		legacy.Set(float64(st.LegacyResults))
		explanations.Set(float64(st.Explanations))
		segments.Set(float64(st.Segments))
		diskBytes.Set(float64(st.DiskBytes))
		cacheItems.Set(float64(st.CacheItems))
		cacheBytes.Set(float64(st.CacheBytes))
		hits.Set(float64(st.Hits))
		misses.Set(float64(st.Misses))
		groupSyncs.Set(float64(st.GroupSyncs))
		syncedFrames.Set(float64(st.SyncedFrames))
	})
}

// registerIndexGauges does the same for the category index: the size of
// its generation and unfolded delta, and what the postings cost in
// which form.
func (s *Server) registerIndexGauges() {
	g := func(name, help string) *telemetry.Gauge {
		return s.reg.Gauge("mosaic_index_"+name, help, nil)
	}
	var (
		genTraces    = g("generation_traces", "Traces in the index's current generation.")
		deltaOps     = g("delta_ops", "Index mutations not yet folded into a generation.")
		postingBytes = g("posting_bytes", "Bytes held by the generation's category postings.")
		bitmaps      = g("bitmap_postings", "Category postings stored as bitmaps rather than lists.")
	)
	s.reg.OnCollect("serve_index_stats", func() {
		st := s.ix.Stats()
		genTraces.Set(float64(st.GenerationTraces))
		deltaOps.Set(float64(st.DeltaOps))
		postingBytes.Set(float64(st.PostingBytes))
		bitmaps.Set(float64(st.BitmapPostings))
	})
}

// Flight returns the flight recorder (nil when tracing is disabled and
// none was configured).
func (s *Server) Flight() *reqtrace.Recorder { return s.flight }

// Fingerprint returns the server's effective config fingerprint.
func (s *Server) Fingerprint() string { return s.fp }

// Index returns the live category index (for tests and embedding).
func (s *Server) Index() *index.Index { return s.ix }

// Registry returns the registry hosting the serve metrics.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// markPending registers a trace as queued/in-flight; false when it
// already is (the -dedup that makes double ingest categorize once).
func (s *Server) markPending(id store.TraceID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pending[id]; ok {
		return false
	}
	s.pending[id] = struct{}{}
	return true
}

func (s *Server) unmarkPending(id store.TraceID) {
	s.mu.Lock()
	delete(s.pending, id)
	s.mu.Unlock()
}

func (s *Server) isPending(id store.TraceID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.pending[id]
	return ok
}

// PendingCount reports how many traces are queued or in categorization
// right now — zero once every acknowledged ingest is fully served. A
// state-independent convergence signal for benchmarks and tests.
func (s *Server) PendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Why a queued trace produced no result: the reason label of
// mosaic_serve_categorize_failures_total.
const (
	failEvicted = "evicted" // the funnel refused the trace
	failError   = "error"   // the executor failed
	failPersist = "persist" // the outcome could not be stored
)

// recordFailure counts a trace that produced no result under why and
// remembers detail for its result route (bounded: oldest entries are
// dropped arbitrarily past 4096 — failure detail is diagnostic, the
// authoritative state is the store).
func (s *Server) recordFailure(id store.TraceID, why, detail string) {
	s.failures[why].Inc()
	s.mu.Lock()
	if len(s.failed) >= 4096 {
		for k := range s.failed {
			delete(s.failed, k)
			break
		}
	}
	s.failed[id] = detail
	s.mu.Unlock()
}

func (s *Server) failureOf(id store.TraceID) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.failed[id]
	return r, ok
}

// Shutdown drains the service gracefully: stop accepting ingests,
// finish the backfill pass, process every queued trace, then stop the
// workers. When ctx expires first, in-flight work is cancelled and
// ctx's error returned — but accepted traces are never lost: their
// blobs are durable and the next startup's backfill completes them.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil // already shut down
	}
	close(s.quit)
	if s.cluster != nil {
		// Stop inbound peer RPCs (and the probe/hint/repair loops)
		// first: their handlers enqueue into the queue being closed.
		if err := s.cluster.shutdown(ctx); err != nil && s.log != nil {
			s.log.Warn("cluster shutdown incomplete", "err", err)
		}
	}
	s.backfillWG.Wait()
	close(s.queue)
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.runCancel()
		<-done
		err = ctx.Err()
	}
	s.runCancel()
	if s.log != nil {
		s.log.Info("serve drained", "err", err)
	}
	return err
}

// ---- HTTP layer ----

// Handler returns the service's HTTP API, wrapped in the request-ID
// middleware (every response echoes or is assigned an X-Request-Id)
// and — unless tracing is disabled — the request-trace middleware:
// every response carries a traceparent header, every request becomes a
// span tree in the flight recorder, GET /debug/requests{,/{id}}
// serve the recent-request table and full span trees, and GET
// /debug/budget the span budget of every route.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/traces", s.handleIngest)
	mux.HandleFunc("POST /v1/traces:batch", s.handleIngestBatch)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("GET /v1/explain/{id}", s.handleExplain)
	mux.HandleFunc("GET /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/cluster/health", s.handleClusterHealth)
	mux.HandleFunc("GET /v1/cluster/metrics", s.handleClusterMetrics)
	if s.cluster != nil {
		mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.Handle("GET /metrics", debughttp.MetricsHandler(s.reg))
	if s.flight != nil {
		fh := debughttp.RequestsHandler(s.flight)
		mux.Handle("GET /debug/requests", fh)
		mux.Handle("GET /debug/requests/{id}", fh)
		mux.Handle("GET /debug/budget", debughttp.BudgetHandler(s.reg))
	}
	return RequestIDMiddleware(s.traceMiddleware(mux))
}

// reqLog returns the server logger bound to the request's ID, or nil
// when logging is disabled.
func (s *Server) reqLog(r *http.Request) *slog.Logger {
	if s.log == nil {
		return nil
	}
	if id := RequestIDFrom(r.Context()); id != "" {
		return s.log.With("request_id", id)
	}
	return s.log
}

// handleExplain derives the decision-provenance record of one trace from
// its stored blob, through the worker's categorizeTrace, in one of the
// pooled readers (429 when none is free), and serves it only when its
// labels are the stored result's (409 with both sets otherwise).
// ?category=<substring> narrows the evidence to matching categories.
// The request's spans split its time: explain.read (the stored result's
// lookup and check), the categorization's funnel.validate and
// categorize.exec, and explain.encode (the filter and the JSON reply).
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.explainsServed.Inc()
	id := store.TraceID(strings.ToLower(r.PathValue("id")))
	if !id.Valid() {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "id must be a 64-char SHA-256 hex digest"})
		return
	}
	rec, ok, err := s.st.GetResultBytes(id, s.fp)
	var stored category.Set
	if err == nil && ok {
		_, stored, err = store.CheckResultRecord(rec)
	}
	found := err == nil && ok && s.st.HasTrace(id)
	reqtrace.AddSpan(r.Context(), "explain.read", start, time.Since(start),
		reqtrace.Str("found", strconv.FormatBool(found)))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	if !found {
		switch {
		case ok:
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "the result is stored without its trace, which an explanation is derived from"})
		case s.isPending(id):
			writePending(w)
		case s.writeFailed(w, id):
		case s.st.HasTrace(id):
			writePending(w)
		default:
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown trace"})
		}
		return
	}
	var tr *traceReader
	select {
	case tr = <-s.explainReaders:
		defer func() { s.explainReaders <- tr }()
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "every explanation slot is busy"})
		return
	}
	res, e, _, err := s.categorizeTrace(r.Context(), tr, id, true)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	if res == nil || res.Categories != stored {
		conflict := struct {
			Error      string   `json:"error"`
			Stored     []string `json:"stored_labels"`
			Recomputed []string `json:"recomputed_labels"`
		}{Error: "the recomputed categorization differs from the stored result", Stored: stored.Strings()}
		if res != nil {
			conflict.Recomputed = res.Categories.Strings()
		}
		writeJSON(w, http.StatusConflict, conflict)
		return
	}
	encode := time.Now()
	if c := r.URL.Query().Get("category"); c != "" {
		e = e.FilterCategory(c)
	}
	if log := s.reqLog(r); log != nil {
		log.Debug("explanation served", "id", string(id), "evidence", e.EvidenceCount())
	}
	writeJSON(w, http.StatusOK, e)
	reqtrace.AddSpan(r.Context(), "explain.encode", encode, time.Since(encode))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

// handleResult serves one stored result. The store keeps a result in
// the bytes this route sends (store/result.go), so a hit is an index
// lookup, a cache or segment read and one Write.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.resultsServed.Inc()
	id := store.TraceID(strings.ToLower(r.PathValue("id")))
	if !id.Valid() {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "id must be a 64-char SHA-256 hex digest"})
		return
	}
	body, cached, ok, err := s.st.ResultBody(id, s.fp)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	if ok {
		writeResultBody(r.Context(), w, body, start, cached)
		return
	}
	if s.isPending(id) {
		writePending(w)
		return
	}
	if s.writeFailed(w, id) {
		return
	}
	if s.cluster != nil {
		// Not here: the trace may live on its replica set. Hedged read —
		// the preferred replica first, the next when it misses the hedge
		// deadline — and the record a replica answers with is relayed as
		// it is. Only "every replica answered: not found" falls through to
		// the 404 below; replicas that could not be asked, or bytes that
		// are not a result record, say nothing about a trace that may be
		// acknowledged and durable elsewhere.
		data, ok, err := s.cluster.ring.FetchResult(r.Context(), RequestIDFrom(r.Context()), string(id))
		var rec []byte
		if err == nil && ok {
			rec, _, err = store.CheckResultRecord(data)
		}
		if err != nil {
			if log := s.reqLog(r); log != nil {
				log.Warn("result fetch from replica set failed", "id", string(id), "err", err)
			}
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "result unavailable from its replica set: " + err.Error()})
			return
		}
		if ok {
			writeResultBody(r.Context(), w, rec[store.ResultHeadLen:], start, false)
			return
		}
	}
	if s.st.HasTrace(id) {
		writePending(w)
		return
	}
	writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown trace"})
}

// writeResultBody answers 200 with a stored result body and records the
// route's one span, "result.read": everything from the request's arrival
// in the handler to the body's hand-off, with its size and whether the
// store's read cache had it.
func writeResultBody(ctx context.Context, w http.ResponseWriter, body []byte, start time.Time, cached bool) {
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // the only failure is a client that left
	reqtrace.AddSpan(ctx, "result.read", start, time.Since(start),
		reqtrace.Int("bytes", int64(len(body))), reqtrace.Str("cache_hit", strconv.FormatBool(cached)))
}

// writeFailed answers 422 for a trace whose categorization failed, and
// reports whether it did.
func (s *Server) writeFailed(w http.ResponseWriter, id store.TraceID) bool {
	reason, failed := s.failureOf(id)
	if failed {
		writeJSON(w, http.StatusUnprocessableEntity, struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}{Status: "failed", Error: reason})
	}
	return failed
}

// writePending answers 202 for a trace whose categorization has not
// landed yet. That covers more than the pending set: a durably stored
// trace without a result or a recorded failure is one the startup
// backfill (or, on a replica, the owner's result push or the repair
// loop) has not reached yet — after a kill -9, exactly the IDs clients
// are polling — and "unknown trace" would tell them an acknowledged
// trace was lost.
func writePending(w http.ResponseWriter) {
	writeJSON(w, http.StatusAccepted, struct {
		Status string `json:"status"`
	}{Status: "pending"})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.querySecs.Observe(time.Since(start).Seconds()) }()
	s.queries.Inc()
	// Everything that can refuse the request is settled before any index
	// or ring work is spent on it.
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing q parameter"})
		return
	}
	limit := -1
	if lv := params.Get("limit"); lv != "" {
		n, err := strconv.Atoi(lv)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "limit must be a non-negative integer"})
			return
		}
		limit = n
	}
	bufs := queryBufs.Get().(*queryBuf)
	defer bufs.release(s.cluster != nil)
	reply := queryReply{Query: q}
	var evaluated time.Time
	if s.cluster == nil {
		// The index cuts the page: nothing exists per match beyond it.
		page, err := s.ix.QueryPage(bufs.ids[:0], q, limit)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		bufs.ids = page.IDs
		reply.Count, reply.IDs, reply.Plain = page.Count, page.IDs, page.Plain
		evaluated = time.Now()
		reqtrace.AddSpan(r.Context(), "query.eval", start, evaluated.Sub(start),
			reqtrace.Int("matches", int64(reply.Count)), reqtrace.Int("returned", int64(len(reply.IDs))))
	} else {
		// Scatter-gather, a page from each node: this node's index and
		// every live peer's each cut their first limit matches and count
		// the rest by placement class; the ring adds the counts up without
		// counting a replicated trace twice, and the answer's page is the
		// head of one K-way merge of the pages, so the ordering is as
		// stable as a single node's. A down peer's shard stays covered by
		// its surviving replicas; partial flags that some peer could not
		// answer at all.
		page, err := s.ix.QueryPage(bufs.local[:0], q, limit)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		bufs.local = page.IDs
		g := &bufs.gather
		s.cluster.ring.GatherQuery(r.Context(), RequestIDFrom(r.Context()), q, limit,
			ring.QueryShard{ByClass: page.ByClass, IDs: page.IDs}, g)
		bufs.ids = index.MergeSortedInto(bufs.ids, g.Pages...)
		ids := bufs.ids
		if limit >= 0 && limit < len(ids) {
			ids = ids[:limit]
		}
		reply.Count, reply.Partial, reply.IDs = g.Count, len(g.Errs) > 0, ids
		if reply.Partial {
			if log := s.reqLog(r); log != nil {
				for pid, perr := range g.Errs {
					log.Warn("scatter query: peer failed", "peer", pid, "err", perr)
				}
			}
		}
		// classes_skewed above zero is why a ring's count may read low:
		// that many placement classes had holders that disagreed.
		evaluated = time.Now()
		reqtrace.AddSpan(r.Context(), "query.eval", start, evaluated.Sub(start),
			reqtrace.Int("matches", int64(reply.Count)), reqtrace.Int("returned", int64(len(reply.IDs))),
			reqtrace.Int("classes_skewed", int64(g.Skewed)))
	}
	if log := s.reqLog(r); log != nil {
		log.Debug("query served", "q", q, "matches", reply.Count)
	}
	n, _ := writeQueryReply(r.Context(), w, reply) // the only failure is a client that left
	reqtrace.AddSpan(r.Context(), "query.encode", evaluated, time.Since(evaluated),
		reqtrace.Int("bytes", n))
}

// queryBuf is what one /v1/query evaluation is put together in, pooled
// so a request allocates nothing for its answer beyond what an append
// past pooled capacity costs: ids is the answer's page — the index's on
// a standalone server, the merge output on a ring node, which also
// holds its own shard's page and the peers' beside it.
type queryBuf struct {
	ids    []string
	local  []string
	gather ring.QueryGather
}

var queryBufs = sync.Pool{New: func() any { return &queryBuf{ids: []string{}} }}

// release drops the ID references, so result strings don't outlive the
// response, and pools the buffer. A page wrote nothing past its length;
// a merge may have.
func (b *queryBuf) release(merged bool) {
	if merged {
		clear(b.ids[:cap(b.ids)])
		clear(b.local)
		b.gather.Reset()
	} else {
		clear(b.ids)
	}
	queryBufs.Put(b)
}

// StatsResponse is the /v1/stats document. In cluster mode Node names
// the answering node and Nodes carries every member's scatter-gathered
// shard statistics (down peers appear with up=false).
type StatsResponse struct {
	Fingerprint string                           `json:"fingerprint"`
	Store       store.Stats                      `json:"store"`
	Indexed     int                              `json:"indexed_traces"`
	Axes        map[string][]index.CategoryCount `json:"axes"`
	QueueDepth  int                              `json:"queue_depth"`
	QueueCap    int                              `json:"queue_capacity"`
	Pending     int                              `json:"pending"`
	Failed      int                              `json:"failed"`
	Node        string                           `json:"node,omitempty"`
	Nodes       []ring.NodeStats                 `json:"nodes,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	pending, failed := len(s.pending), len(s.failed)
	s.mu.Unlock()
	resp := StatsResponse{
		Fingerprint: s.fp,
		Store:       s.st.Stats(),
		Indexed:     s.ix.Len(),
		Axes:        s.ix.AxisCounts(),
		QueueDepth:  len(s.queue),
		QueueCap:    s.queueCap,
		Pending:     pending,
		Failed:      failed,
	}
	if s.cluster != nil {
		resp.Node = s.cluster.ring.Self().ID
		nodes := append([]ring.NodeStats{s.cluster.localStats()},
			s.cluster.ring.ScatterStats(r.Context(), RequestIDFrom(r.Context()))...)
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Node < nodes[j].Node })
		resp.Nodes = nodes
	}
	writeJSON(w, http.StatusOK, resp)
}
