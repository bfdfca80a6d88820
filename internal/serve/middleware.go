package serve

import (
	"net/http"
	"strings"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// Request tracing at the HTTP edge: every request gets a reqtrace.Trace
// (adopting an incoming W3C traceparent when present, else minting a
// fresh trace ID), carried through the handler in the request context
// and across the queue boundary to the worker. The root span covers
// edge → response write; the trace itself finalizes — and reaches the
// flight recorder — only when the async work the request spawned has
// released its references, so a 202-acked ingest's trace still ends up
// containing the queue wait, the funnel check, the categorization, the
// group commit and the index update that happened after the response
// went out.

// routePatterns are the service's route identities, used both to
// normalize metric labels (bounded cardinality: {id} stays literal) and
// to pre-register the per-route RED instruments.
var routePatterns = []struct {
	method, prefix, route string
}{
	{http.MethodPost, "/v1/traces:batch", "/v1/traces:batch"},
	{http.MethodPost, "/v1/traces", "/v1/traces"},
	{http.MethodGet, "/v1/results/", "/v1/results/{id}"},
	{http.MethodGet, "/v1/explain/", "/v1/explain/{id}"},
	{http.MethodGet, "/v1/query", "/v1/query"},
	{http.MethodGet, "/v1/stats", "/v1/stats"},
	{http.MethodGet, "/v1/events", "/v1/events"},
	{http.MethodGet, "/v1/alerts", "/v1/alerts"},
	{http.MethodGet, "/v1/cluster/health", "/v1/cluster/health"},
	{http.MethodGet, "/v1/cluster/metrics", "/v1/cluster/metrics"},
	{http.MethodGet, "/v1/cluster", "/v1/cluster"},
	{http.MethodGet, "/debug/requests", "/debug/requests"},
	{http.MethodGet, "/debug/budget", "/debug/budget"},
	{http.MethodGet, "/healthz", "/healthz"},
	{http.MethodGet, "/metrics", "/metrics"},
}

// routeOther labels requests that match no known pattern.
const routeOther = "other"

// normalizeRoute maps a request to its bounded route label. Done by
// prefix rather than http.Request.Pattern so the module keeps building
// under its declared go 1.22.
func normalizeRoute(r *http.Request) string {
	for _, rp := range routePatterns {
		if r.Method == rp.method && strings.HasPrefix(r.URL.Path, rp.prefix) {
			return rp.route
		}
	}
	return routeOther
}

// normalizeMethod maps a request's method to a bounded label: the
// server accepts any token as a method, and the root span's name, which
// labels the request's latency budget, carries it.
func normalizeMethod(m string) string {
	switch m {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
		http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace:
		return m
	}
	return "OTHER"
}

// routeInstruments is one route's RED instrument pair.
type routeInstruments struct {
	latency     *telemetry.Histogram
	sloBreaches *telemetry.Counter
}

// registerRouteMetrics pre-registers the per-route latency histograms
// and SLO breach counters so the request path does a map read, never a
// registry registration.
func (s *Server) registerRouteMetrics() {
	s.routeMetrics = make(map[string]routeInstruments, len(routePatterns)+1)
	add := func(route string) {
		s.routeMetrics[route] = routeInstruments{
			latency: s.reg.Histogram("mosaic_http_request_seconds",
				"HTTP request latency by route (exemplars carry the trace ID).",
				nil, telemetry.Labels{"route": route}),
			sloBreaches: s.reg.Counter("mosaic_slo_latency_breaches_total",
				"Requests whose edge latency exceeded the configured SLO target.",
				telemetry.Labels{"route": route}),
		}
	}
	for _, rp := range routePatterns {
		add(rp.route)
	}
	add(routeOther)
	if s.slo > 0 {
		s.reg.Gauge("mosaic_slo_target_seconds",
			"Configured per-request latency SLO target.", nil).Set(s.slo.Seconds())
	}
}

// statusRecorder captures the response status for the root span.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// traceMiddleware opens the request trace, echoes the traceparent
// header, runs the handler with the trace in context, then finishes the
// root span and records the RED/SLO metrics. With tracing disabled it
// is the identity — the handler chain pays nothing.
func (s *Server) traceMiddleware(next http.Handler) http.Handler {
	if !s.traceOn {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route := normalizeRoute(r)
		t := reqtrace.New(reqtrace.StartOptions{
			Traceparent: r.Header.Get(reqtrace.TraceparentHeader),
			RequestID:   RequestIDFrom(r.Context()),
			Method:      normalizeMethod(r.Method),
			Route:       route,
			Start:       start,
			OnDone:      s.onTraceDone,
		})
		w.Header().Set(reqtrace.TraceparentHeader, t.Traceparent())
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r.WithContext(reqtrace.NewContext(r.Context(), t)))
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		elapsed := time.Since(start)
		ri, ok := s.routeMetrics[route]
		if !ok {
			ri = s.routeMetrics[routeOther]
		}
		ri.latency.ObserveWithExemplar(elapsed.Seconds(), t.IDString())
		if s.slo > 0 && elapsed > s.slo {
			ri.sloBreaches.Inc()
		}
		t.FinishRoot(rec.status)
	})
}
