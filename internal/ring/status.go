package ring

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
)

// errPeerDown marks scatter results skipped because the peer was
// already believed unreachable when the fan-out started.
var errPeerDown = errors.New("peer down")

// Health rollup states. A node self-reports ok or degraded through its
// StatusSnapshot; down is assigned by the gathering node when a peer
// is unreachable or fails to answer the status RPC.
const (
	StatusHealthOK       = "ok"
	StatusHealthDegraded = "degraded"
	StatusHealthDown     = "down"
)

// StatusSnapshot is one node's self-reported health and vitals — the
// OpStatus reply body and the per-node entry in the fleet health
// document.
type StatusSnapshot struct {
	Node           string   `json:"node"`
	Status         string   `json:"status"`            // ok | degraded (self-reported); down set by the gatherer
	Reasons        []string `json:"reasons,omitempty"` // why the node considers itself degraded
	BuildVersion   string   `json:"build_version,omitempty"`
	GoVersion      string   `json:"go_version,omitempty"`
	RoutingVersion string   `json:"routing_version,omitempty"`
	UptimeSeconds  float64  `json:"uptime_seconds,omitempty"`

	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	Pending       int `json:"pending"`
	HintsPending  int `json:"hints_pending"`
	PeersUp       int `json:"peers_up"`
	PeersTotal    int `json:"peers_total"`

	StoreTraces   int64 `json:"store_traces"`
	StoreResults  int64 `json:"store_results"`
	StoreSegments int   `json:"store_segments"`
	StoreBytes    int64 `json:"store_bytes"`

	LastEventSeq uint64 `json:"last_event_seq"`
	ActiveAlerts int    `json:"active_alerts"`
	Goroutines   int    `json:"goroutines"`
	HeapBytes    uint64 `json:"heap_bytes"`
}

// HintsPending reports the total hinted-handoff backlog across peers.
func (c *Cluster) HintsPending() int {
	c.hintMu.Lock()
	defer c.hintMu.Unlock()
	total := 0
	for _, s := range c.hints {
		total += len(s)
	}
	return total
}

// PeersUp reports how many peers are currently believed reachable and
// the total peer count.
func (c *Cluster) PeersUp() (up, total int) {
	for _, p := range c.peers {
		total++
		if p.up.Load() {
			up++
		}
	}
	return up, total
}

// ScatterStatus collects every peer's StatusSnapshot in ring order.
// Down peers — and peers that fail to answer in time — appear with
// Status "down"; partial reports whether any peer that was believed up
// failed to answer (the document may under-report the fleet).
func (c *Cluster) ScatterStatus(ctx context.Context, reqID string) (snaps []StatusSnapshot, partial bool) {
	snaps = make([]StatusSnapshot, len(c.order))
	var failed atomic.Bool
	c.scatter(ctx, OpStatus, "status", reqID, nil, func(i int, pid string, resp []byte, err error) {
		var ss StatusSnapshot
		if err == nil {
			err = json.Unmarshal(resp, &ss)
		}
		switch {
		case err != nil:
			ss = StatusSnapshot{Node: pid, Status: StatusHealthDown}
			if !errors.Is(err, errPeerDown) {
				failed.Store(true)
			}
		case ss.Status == "":
			ss.Status = StatusHealthOK
		}
		snaps[i] = ss
	})
	return snaps, failed.Load()
}

// ScatterMetrics fetches every live peer's metrics export (the
// JSON-encoded telemetry family snapshots OpMetricsSnap returns),
// keyed by node ID. Down or failing peers are reported in errs.
func (c *Cluster) ScatterMetrics(ctx context.Context, reqID string) (map[string][]byte, map[string]error) {
	out := make(map[string][]byte, len(c.order))
	errs := make(map[string]error)
	var mu sync.Mutex
	c.scatter(ctx, OpMetricsSnap, "metrics", reqID, nil, func(_ int, pid string, resp []byte, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs[pid] = err
			return
		}
		out[pid] = resp
	})
	return out, errs
}
