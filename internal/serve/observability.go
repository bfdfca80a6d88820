package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/events"
	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// The cluster observability plane, server side: the event journal
// endpoint and the federation endpoints that turn any node into a
// fleet-wide health and metrics vantage point. The server passes no
// verdict on its own SLOs: examples/observability/alerts.rules.yml
// computes the burn rates from the series /metrics exports.

// backpressureEventInterval rate-limits backpressure journal entries: a
// saturated queue rejects thousands of requests per second, and one
// event per rejection would evict everything else from the ring.
const backpressureEventInterval = 5 * time.Second

// emitBackpressure journals a 429'd ingest, coalescing bursts.
func (s *Server) emitBackpressure(reqID string) {
	now := time.Now().UnixNano()
	last := s.lastBP.Load()
	if now-last < int64(backpressureEventInterval) || !s.lastBP.CompareAndSwap(last, now) {
		return
	}
	s.events.Emit(events.SevWarn, events.TypeBackpressure,
		"ingest queue full, rejecting with 429",
		"request_id", reqID,
		"queue_capacity", strconv.Itoa(s.queueCap))
}

// ---- local status ----

// localStatus is this node's self-assessment: ok unless something an
// operator should know about is true right now. Down is never
// self-reported — an unreachable node cannot answer at all, so the
// gatherer assigns it.
func (s *Server) localStatus() ring.StatusSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := s.st.Stats()
	s.mu.Lock()
	pending := len(s.pending)
	s.mu.Unlock()
	ss := ring.StatusSnapshot{
		Status:        ring.StatusHealthOK,
		BuildVersion:  telemetry.BuildVersion(),
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(s.startedAt).Seconds(),
		QueueDepth:    len(s.queue),
		QueueCapacity: s.queueCap,
		Pending:       pending,
		StoreTraces:   int64(st.Traces),
		StoreResults:  int64(st.Results),
		StoreSegments: st.Segments,
		StoreBytes:    st.DiskBytes,
		LastEventSeq:  s.events.LastSeq(),
		Goroutines:    runtime.NumGoroutine(),
		HeapBytes:     ms.HeapAlloc,
	}
	if s.cluster != nil {
		c := s.cluster.ring
		ss.Node = c.Self().ID
		ss.RoutingVersion = strconv.FormatUint(c.Table().Version(), 16)
		ss.HintsPending = c.HintsPending()
		ss.PeersUp, ss.PeersTotal = c.PeersUp()
	}
	var reasons []string
	if ss.QueueDepth*10 >= s.queueCap*9 {
		reasons = append(reasons, fmt.Sprintf("ingest queue ≥90%% full (%d/%d)", ss.QueueDepth, s.queueCap))
	}
	if ss.HintsPending > 0 {
		reasons = append(reasons, fmt.Sprintf("%d hinted handoffs pending replay", ss.HintsPending))
	}
	if s.cluster != nil && ss.PeersUp < ss.PeersTotal {
		reasons = append(reasons, fmt.Sprintf("%d of %d peers down", ss.PeersTotal-ss.PeersUp, ss.PeersTotal))
	}
	if len(reasons) > 0 {
		ss.Status = ring.StatusHealthDegraded
		ss.Reasons = reasons
	}
	return ss
}

// ---- HTTP endpoints ----

// eventsResponse is the /v1/events document.
type eventsResponse struct {
	Node     string         `json:"node,omitempty"`
	Earliest uint64         `json:"earliest_seq"`
	Last     uint64         `json:"last_seq"`
	Count    int            `json:"count"`
	Events   []events.Event `json:"events"`
}

// handleEvents serves the event journal with cursor pagination:
// ?since=<seq> resumes after a sequence number, ?severity= filters
// (info|warn|error), ?limit= caps the page (default 256, max 4096).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "since must be a non-negative integer"})
			return
		}
		since = n
	}
	minSev := events.SevInfo
	if v := q.Get("severity"); v != "" {
		sev, ok := events.ParseSeverity(v)
		if !ok {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "severity must be info, warn or error"})
			return
		}
		minSev = sev
	}
	limit := 256
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "limit must be a positive integer"})
			return
		}
		limit = min(n, 4096)
	}
	page := s.events.Since(since, minSev, limit)
	node := ""
	if s.cluster != nil {
		node = s.cluster.ring.Self().ID
	}
	if page.Events == nil {
		page.Events = []events.Event{}
	}
	writeJSON(w, http.StatusOK, eventsResponse{
		Node: node, Earliest: page.Earliest, Last: page.Last,
		Count: len(page.Events), Events: page.Events,
	})
}

// healthResponse is the /v1/cluster/health document.
type healthResponse struct {
	Status  string                `json:"status"` // ok | degraded
	Node    string                `json:"node,omitempty"`
	Partial bool                  `json:"partial,omitempty"` // a live peer failed to answer
	Nodes   []ring.StatusSnapshot `json:"nodes"`
}

// handleClusterHealth scatter-gathers every node's StatusSnapshot and
// rolls them up: ok only when every member self-reports ok. Any node
// answers for the whole fleet. In single-node mode the document holds
// just this node.
func (s *Server) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	local := s.localStatus()
	nodes := []ring.StatusSnapshot{local}
	partial := false
	if s.cluster != nil {
		snaps, p := s.cluster.ring.ScatterStatus(r.Context(), RequestIDFrom(r.Context()))
		nodes = append(nodes, snaps...)
		partial = p
	}
	rollup := ring.StatusHealthOK
	for _, n := range nodes {
		if n.Status != ring.StatusHealthOK {
			rollup = ring.StatusHealthDegraded
			break
		}
	}
	writeJSON(w, http.StatusOK, healthResponse{
		Status: rollup, Node: local.Node, Partial: partial, Nodes: nodes,
	})
}

// clusterGaugeRules overrides the default sum-merge for gauges whose
// fleet-wide meaning is not additive.
var clusterGaugeRules = map[string]telemetry.GaugeMergeRule{
	"mosaic_slo_target_seconds": telemetry.MergeMax,
	"mosaic_build_info":         telemetry.MergeMax,
	"mosaic_runtime_gomaxprocs": telemetry.MergeMax,
	"mosaic_ring_peers_up":      telemetry.MergeMin,
}

// handleClusterMetrics federates the fleet's metrics into one
// Prometheus exposition: every live peer's registry export is merged
// with this node's (counters sum, histogram buckets merge, gauges per
// clusterGaugeRules). ?node=1 keeps the series separate instead,
// adding a node label to each. mosaic_cluster_metrics_partial reports
// whether any peer's registry is missing from the document.
func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	self := ""
	if s.cluster != nil {
		self = s.cluster.ring.Self().ID
	}
	perNode := map[string][]telemetry.FamilySnapshot{self: s.reg.Export()}
	partial := 0
	if s.cluster != nil {
		blobs, errs := s.cluster.ring.ScatterMetrics(r.Context(), RequestIDFrom(r.Context()))
		for pid, blob := range blobs {
			var fams []telemetry.FamilySnapshot
			if err := json.Unmarshal(blob, &fams); err != nil {
				partial++
				continue
			}
			perNode[pid] = fams
		}
		partial += len(errs)
	}
	var fams []telemetry.FamilySnapshot
	if r.URL.Query().Get("node") != "" {
		fams = telemetry.LabelFamilies(perNode, "node")
	} else {
		fams = telemetry.MergeFamilies(perNode, clusterGaugeRules)
	}
	fams = append(fams, telemetry.FamilySnapshot{
		Name: "mosaic_cluster_metrics_partial",
		Help: "Peers whose metrics are missing from this federated exposition.",
		Kind: "gauge",
		Series: []telemetry.SeriesSnapshot{
			{Value: float64(partial)},
		},
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.WriteFamilies(w, fams); err != nil && s.log != nil {
		s.log.Warn("federated metrics write failed", "err", err)
	}
}
