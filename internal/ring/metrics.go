package ring

import "github.com/mosaic-hpc/mosaic/internal/telemetry"

// Metrics is the ring layer's pre-registered instrument bundle: the
// layer increments fields directly, so the inter-node hot path never
// touches the registry's registration lock.
type Metrics struct {
	// RPCSeconds is the client-side latency of one inter-node call.
	RPCSeconds *telemetry.Histogram
	// RPCErrors counts failed inter-node calls (transport or peer error).
	RPCErrors *telemetry.Counter
	// ForwardedTraces counts ingested traces routed to their ring owner
	// on another node.
	ForwardedTraces *telemetry.Counter
	// ReplicatedTraces counts trace copies shipped to follower replicas.
	ReplicatedTraces *telemetry.Counter
	// ResultPushes counts categorization results pushed to replicas.
	ResultPushes *telemetry.Counter
	// HedgedRequests counts reads re-issued to a replica because the
	// owner missed the hedge deadline.
	HedgedRequests *telemetry.Counter
	// DegradedAcks counts ingest acknowledgments issued with fewer
	// durable replica copies than configured (followers down).
	DegradedAcks *telemetry.Counter
	// HintsQueued / HintsReplayed / HintsDropped track hinted handoff:
	// replications deferred because a follower was down, later replayed,
	// or dropped past the per-peer hint cap.
	HintsQueued   *telemetry.Counter
	HintsReplayed *telemetry.Counter
	HintsDropped  *telemetry.Counter
	// HintsPending is the current hinted-handoff backlog.
	HintsPending *telemetry.Gauge
	// PeersUp is how many peers the health prober currently considers
	// reachable.
	PeersUp *telemetry.Gauge
	// ProbeFailures counts failed health probes.
	ProbeFailures *telemetry.Counter
	// VersionMismatches counts probes answered by a peer running a
	// different routing-table version — a misconfigured cluster.
	VersionMismatches *telemetry.Counter
}

// newMetrics registers the mosaic_ring_* instruments in reg.
func newMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		RPCSeconds: reg.Histogram("mosaic_ring_rpc_seconds",
			"Latency of one inter-node RPC (client side).", nil, nil),
		RPCErrors: reg.Counter("mosaic_ring_rpc_errors_total",
			"Inter-node RPCs that failed (transport or peer error).", nil),
		ForwardedTraces: reg.Counter("mosaic_ring_forwarded_traces_total",
			"Ingested traces forwarded to their ring owner on another node.", nil),
		ReplicatedTraces: reg.Counter("mosaic_ring_replicated_traces_total",
			"Trace copies shipped to follower replicas.", nil),
		ResultPushes: reg.Counter("mosaic_ring_result_pushes_total",
			"Categorization results pushed to follower replicas.", nil),
		HedgedRequests: reg.Counter("mosaic_ring_hedged_requests_total",
			"Reads re-issued to a replica after the owner missed the hedge deadline.", nil),
		DegradedAcks: reg.Counter("mosaic_ring_degraded_acks_total",
			"Ingest acks issued with fewer durable replica copies than configured.", nil),
		HintsQueued: reg.Counter("mosaic_ring_hints_queued_total",
			"Replications deferred as hints because the follower was down.", nil),
		HintsReplayed: reg.Counter("mosaic_ring_hints_replayed_total",
			"Hinted replications successfully replayed.", nil),
		HintsDropped: reg.Counter("mosaic_ring_hints_dropped_total",
			"Hints dropped past the per-peer backlog cap.", nil),
		HintsPending: reg.Gauge("mosaic_ring_hints_pending",
			"Current hinted-handoff backlog across all peers.", nil),
		PeersUp: reg.Gauge("mosaic_ring_peers_up",
			"Peers the health prober currently considers reachable.", nil),
		ProbeFailures: reg.Counter("mosaic_ring_probe_failures_total",
			"Failed peer health probes.", nil),
		VersionMismatches: reg.Counter("mosaic_ring_version_mismatches_total",
			"Health probes answered with a different routing-table version.", nil),
	}
}
