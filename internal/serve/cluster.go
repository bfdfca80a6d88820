package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/events"
	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// Cluster mode: with Config.Cluster set, the server becomes one node of
// a sharded, replicated cluster. Each trace's SHA-256 content address
// places it on a consistent-hash ring (internal/ring); the node an
// ingest lands on routes every trace to its ring owner, the owner
// persists it (group-committed fsync), replicates it to its followers
// — waiting for ReplicaAck durable follower copies before the client
// is acknowledged — and categorizes it exactly once, pushing the result
// to the replicas. Queries and stats scatter to every live peer and
// gather; result reads route to the replica set with hedging. The
// wiring lives in clusterNode, the serve-side implementation of
// ring.Backend.

// clusterNode binds a Server to its ring.Cluster: it implements
// ring.Backend for inbound peer RPCs and owns the routing/replication
// logic of outbound ones, plus the follower repair loop.
type clusterNode struct {
	s    *Server
	ring *ring.Cluster

	mu     sync.Mutex
	repair map[store.TraceID]time.Time // replicated traces awaiting the owner's result push

	wg sync.WaitGroup
}

func newClusterNode(s *Server, rcfg ring.Config) (*clusterNode, error) {
	if rcfg.Log == nil {
		rcfg.Log = s.log
	}
	if rcfg.Registry == nil {
		rcfg.Registry = s.reg
	}
	if rcfg.Flight == nil {
		rcfg.Flight = s.flight
	}
	if rcfg.Events == nil {
		rcfg.Events = s.events
	}
	cn := &clusterNode{s: s, repair: make(map[store.TraceID]time.Time)}
	c, err := ring.NewCluster(rcfg, cn)
	if err != nil {
		return nil, err
	}
	cn.ring = c
	cn.wg.Add(1)
	go cn.repairLoop()
	return cn, nil
}

func (cn *clusterNode) shutdown(ctx context.Context) error {
	err := cn.ring.Shutdown(ctx)
	cn.wg.Wait()
	return err
}

// ---- ingest routing (outbound) ----

// route is the ring's step on the write path (see ingest.go): split a
// decoded group by the first live, untried node of each trace's replica
// set — the owner when it is up — ingest this node's share directly and
// forward the rest, all at once: each branch chains durable waits (the
// owner's persist fsync, then its sync-replication fsync) that would
// otherwise add up across owners, so the ack waits for the slowest
// branch, not for the sum. Branches write disjoint slots of out. tried
// holds the peers a forward of these traces already failed on and is
// only read; a trace with no replica left lands here — the sloppy write
// that keeps an ingest succeeding through any single-node failure.
func (cn *clusterNode) route(ctx context.Context, reqID string, group []routedItem, tried map[string]bool, out []IngestItem) {
	self := cn.ring.Self().ID
	var local []routedItem
	remote := make(map[string][]routedItem)
	for _, it := range group {
		switch target := cn.routeTarget(string(it.id), tried); target {
		case self, "":
			local = append(local, it)
		default:
			remote[target] = append(remote[target], it)
		}
	}
	var wg sync.WaitGroup
	for pid, g := range remote {
		wg.Add(1)
		go func(pid string, g []routedItem) {
			defer wg.Done()
			cn.forward(ctx, reqID, pid, g, tried, out)
		}(pid, g)
	}
	if len(local) > 0 {
		cn.ingestOwned(ctx, reqID, local, out)
	}
	wg.Wait()
}

// routeTarget picks the node a trace should be ingested on: the first
// live, untried member of its replica set, "" when every one is down
// or tried (the caller falls back to a local sloppy write).
func (cn *clusterNode) routeTarget(key string, tried map[string]bool) string {
	for _, n := range cn.ring.Table().Replicas(key) {
		if tried[n.ID] {
			continue
		}
		if n.ID == cn.ring.Self().ID || cn.ring.Healthy(n.ID) {
			return n.ID
		}
	}
	return ""
}

// forward ships one owner's worth of traces to that peer and takes its
// per-item statuses. A forward that fails — a transport error, which
// also marks the peer down, or a reply naming a status this node does
// not know — sends the group back through route with the peer tried.
func (cn *clusterNode) forward(ctx context.Context, reqID, peerID string, group []routedItem, tried map[string]bool, out []IngestItem) {
	ids, blobs := pairs(group)
	sts, err := cn.ring.ForwardIngest(ctx, reqID, peerID, ids, blobs)
	for i, st := range sts {
		// The reply is a peer's word: a status outside the five would
		// index a nil counter when the response is tallied.
		if cn.s.ingestStatus[st.Status] == nil {
			err = fmt.Errorf("serve: peer %s answered item status %q", peerID, st.Status)
			break
		}
		// The peer stored the blob under the ID it was sent with.
		out[group[i].idx] = IngestItem{Name: group[i].name, ID: group[i].id, Status: st.Status, Error: st.Error}
	}
	if err == nil {
		return
	}
	if log := cn.s.log; log != nil {
		log.Warn("cluster: ingest forward failed, re-routing",
			"request_id", reqID, "peer", peerID, "traces", len(group), "err", err)
	}
	next := map[string]bool{peerID: true}
	for pid := range tried {
		next[pid] = true
	}
	cn.route(ctx, reqID, group, next, out)
}

// ingestOwned ingests traces this node takes responsibility for:
// ingestGroup, as on a standalone node, then replication —
// synchronously to the first ReplicaAck live followers of each trace
// (their fsync happens before the caller acknowledges), asynchronously
// to the rest, hints for the down ones.
func (cn *clusterNode) ingestOwned(ctx context.Context, reqID string, group []routedItem, out []IngestItem) {
	if cn.s.ingestGroup(ctx, reqID, group, out) {
		cn.replicate(ctx, reqID, group)
	}
}

// pairs lays a group out as the parallel id/blob slices the ring's
// bulk RPCs take. The blobs still alias the items'.
func pairs(group []routedItem) (ids []string, blobs [][]byte) {
	ids, blobs = make([]string, len(group)), make([][]byte, len(group))
	for i, it := range group {
		ids[i], blobs[i] = string(it.id), it.blob
	}
	return ids, blobs
}

// replicate ships follower copies of a just-persisted group, grouped
// per peer so each follower pays one RPC and one fsync.
func (cn *clusterNode) replicate(ctx context.Context, reqID string, group []routedItem) {
	self := cn.ring.Self().ID
	ackN := cn.ring.ReplicaAck()
	syncG := make(map[string][]routedItem)
	asyncG := make(map[string][]routedItem)
	met := cn.ring.Metrics()
	for _, it := range group {
		acks := 0
		for _, n := range cn.ring.Table().Replicas(string(it.id)) {
			if n.ID == self {
				continue
			}
			switch {
			case !cn.ring.Healthy(n.ID):
				cn.ring.Hint(n.ID, []string{string(it.id)})
			case acks < ackN:
				syncG[n.ID] = append(syncG[n.ID], it)
				acks++
			default:
				asyncG[n.ID] = append(asyncG[n.ID], it)
			}
		}
		if acks < ackN {
			met.DegradedAcks.Inc()
			cn.emitDegradedAck(reqID, 1, "not enough live followers")
		}
	}
	// Sync groups in parallel: each blocks on the follower's fsync, so
	// waiting them out one peer at a time would stack the durability
	// latencies.
	var wg sync.WaitGroup
	for pid, g := range syncG {
		wg.Add(1)
		go func(pid string, g []routedItem) {
			defer wg.Done()
			ids, blobs := pairs(g)
			if err := cn.ring.Replicate(ctx, reqID, pid, ids, blobs); err != nil {
				// Replicate hinted the IDs; the ack goes out with fewer
				// durable copies than configured.
				met.DegradedAcks.Add(int64(len(ids)))
				cn.emitDegradedAck(reqID, len(ids), "sync replication failed: "+err.Error())
				if log := cn.s.log; log != nil {
					log.Warn("cluster: sync replication failed, ack degraded",
						"request_id", reqID, "peer", pid, "traces", len(ids), "err", err)
				}
			}
		}(pid, g)
	}
	wg.Wait()
	for pid, g := range asyncG {
		// Best-effort copies outlive the request: the blobs alias the
		// upload buffer or a connection read buffer, either of which is
		// reused as soon as the handler returns.
		ids, blobs := pairs(g)
		for i, b := range blobs {
			blobs[i] = append([]byte(nil), b...)
		}
		go cn.ring.Replicate(context.Background(), reqID, pid, ids, blobs) //nolint:errcheck // failure hints for replay
	}
}

// pushResult ships a freshly computed result to the trace's other
// replicas (called by the worker after the result is durable): rec is
// the record the worker committed, so the owner reads nothing back.
func (cn *clusterNode) pushResult(reqID string, id store.TraceID, rec []byte) {
	var peers []string
	for _, n := range cn.ring.Table().Replicas(string(id)) {
		if n.ID != cn.ring.Self().ID {
			peers = append(peers, n.ID)
		}
	}
	if len(peers) > 0 {
		cn.ring.PushResult(reqID, string(id), cn.s.fp, rec, peers)
	}
}

// repairLoop is the replica's safety net against owner death: a
// replicated trace whose result push has not arrived within
// RepairAfter is categorized locally through the normal worker queue.
// Pushes that do arrive clear their entry, so in the healthy case the
// loop wakes, finds nothing due, and goes back to sleep.
func (cn *clusterNode) repairLoop() {
	defer cn.wg.Done()
	after := cn.ring.RepairAfter()
	tick := time.NewTicker(max(after/2, 100*time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-cn.s.quit:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-after)
		var due []store.TraceID
		cn.mu.Lock()
		for id, at := range cn.repair {
			if at.Before(cutoff) {
				due = append(due, id)
				delete(cn.repair, id)
			}
		}
		cn.mu.Unlock()
		for _, id := range due {
			if cn.s.st.HasResult(id, cn.s.fp) {
				continue
			}
			it := cn.s.queueTrace(context.Background(), "", id, "repair")
			if log := cn.s.log; log != nil {
				log.Info("cluster: repairing replica without result", "id", string(id), "status", it.Status)
			}
		}
	}
}

// ---- ring.Backend (inbound peer RPCs) ----

// HandleIngest serves a peer-forwarded ingest: this node is (or stands
// in for) the ring owner of every blob in the group, and from here on
// the group is on the same path a local one takes (ingestOwned).
// Protocol invariant: the forwarding node canonicalized each upload and
// ships the blob with its content address, so nothing is re-encoded or
// re-hashed here, and nothing is decoded either: the blob is walked
// (walkCanonical), and one that is not canonical is refused as
// unreadable. The worker decodes the stored copy. Upload names do not
// travel; a forwarded item is named by the head of its ID, which is what
// its "item:" span on this node is called.
func (cn *clusterNode) HandleIngest(ctx context.Context, reqID string, ids []string, blobs [][]byte) []ring.ItemStatus {
	items := make([]IngestItem, len(blobs))
	group := make([]routedItem, 0, len(blobs))
	for i, blob := range blobs {
		if cn.s.draining.Load() {
			items[i] = IngestItem{Status: StatusRejected, Error: "server is draining"}
			continue
		}
		id := store.TraceID(ids[i])
		if !id.Valid() {
			items[i] = IngestItem{Status: StatusUnreadable, Error: "malformed trace ID"}
			continue
		}
		canonical, err := walkCanonical(blob)
		if err == nil && !canonical {
			err = errors.New("forwarded blob is not a canonical trace encoding")
		}
		if err != nil {
			items[i] = IngestItem{Status: StatusUnreadable, Error: err.Error()}
			continue
		}
		group = append(group, routedItem{idx: i, name: string(id[:12]), id: id, blob: blob})
	}
	if len(group) > 0 {
		cn.ingestOwned(ctx, reqID, group, items)
	}
	out := make([]ring.ItemStatus, len(items))
	for i, it := range items {
		out[i] = ring.ItemStatus{ID: string(it.ID), Status: it.Status, Error: it.Error}
	}
	return out
}

// HandleReplicate persists follower copies durably — one batch, one
// group-committed fsync — without categorizing: the owner pushes the
// result, and the repair loop covers an owner that dies first. The
// blobs alias the RPC read buffer; the keyed put copies them into the
// store's staging buffer before this returns, so no copy is needed.
func (cn *clusterNode) HandleReplicate(ctx context.Context, reqID string, rawIDs []string, blobs [][]byte) error {
	ids := make([]store.TraceID, len(rawIDs))
	for i, id := range rawIDs {
		ids[i] = store.TraceID(id)
	}
	if _, err := cn.s.st.PutTraceBatchKeyedCtx(ctx, ids, blobs); err != nil {
		return err
	}
	now := time.Now()
	cn.mu.Lock()
	for _, id := range ids {
		if !cn.s.st.HasResult(id, cn.s.fp) {
			cn.repair[id] = now
		}
	}
	cn.mu.Unlock()
	return nil
}

// HandleResultPush stores an owner-computed result and indexes it from
// the set at the record's head, sparing this replica the
// categorization. The store validates the bytes on the way in (and
// converts the compact document a node predating the served form
// pushes).
func (cn *clusterNode) HandleResultPush(ctx context.Context, id, fp string, result []byte) error {
	tid := store.TraceID(id)
	if !tid.Valid() {
		return fmt.Errorf("serve: result push with invalid trace ID %q", id)
	}
	// Copy: result aliases the connection read buffer and the store's
	// read cache may retain the value slice.
	set, err := cn.s.st.PutResultBytesCtx(ctx, tid, fp, append([]byte(nil), result...))
	if err != nil {
		return err
	}
	if fp == cn.s.fp {
		cn.s.ix.AddCtx(ctx, tid, set)
		cn.mu.Lock()
		delete(cn.repair, tid)
		cn.mu.Unlock()
	}
	return nil
}

// HandleQuery answers a peer's scatter query over the local shard: the
// page the index cuts and its count split by placement class, which the
// index keeps because New handed it the ring's classes.
func (cn *clusterNode) HandleQuery(ctx context.Context, dst []string, q string, limit int) ([]string, []int, error) {
	page, err := cn.s.ix.QueryPage(dst, q, limit)
	return page.IDs, page.ByClass, err
}

// HandleStats reports this node's shard statistics.
func (cn *clusterNode) HandleStats(ctx context.Context) ring.NodeStats {
	return cn.localStats()
}

func (cn *clusterNode) localStats() ring.NodeStats {
	s := cn.s
	s.mu.Lock()
	pending := len(s.pending)
	s.mu.Unlock()
	st := s.st.Stats()
	return ring.NodeStats{
		Node:       cn.ring.Self().ID,
		Up:         true,
		Indexed:    s.ix.Len(),
		QueueDepth: len(s.queue),
		Pending:    pending,
		Traces:     int64(st.Traces),
		Results:    int64(st.Results),
	}
}

// HandleStatus reports this node's self-assessed health — the per-node
// entry a peer's /v1/cluster/health scatter-gathers.
func (cn *clusterNode) HandleStatus(ctx context.Context) ring.StatusSnapshot {
	return cn.s.localStatus()
}

// HandleMetrics serves this node's full metrics registry as JSON family
// snapshots — the federation payload /v1/cluster/metrics merges.
func (cn *clusterNode) HandleMetrics(ctx context.Context) ([]byte, error) {
	return json.Marshal(cn.s.reg.Export())
}

// emitDegradedAck journals an ingest acknowledged with fewer durable
// copies than configured.
func (cn *clusterNode) emitDegradedAck(reqID string, traces int, reason string) {
	if ev := cn.s.events; ev != nil {
		ev.Emit(events.SevWarn, events.TypeDegradedAck, "ingest acked with degraded durability",
			"request_id", reqID, "traces", strconv.Itoa(traces), "reason", reason)
	}
}

// HandleResult serves a trace's stored result record to a peer (routed
// or hedged read).
func (cn *clusterNode) HandleResult(ctx context.Context, id string) ([]byte, bool, error) {
	tid := store.TraceID(id)
	if !tid.Valid() {
		return nil, false, fmt.Errorf("serve: result fetch with invalid trace ID %q", id)
	}
	return cn.s.st.GetResultBytes(tid, cn.s.fp)
}

// FetchTrace reads a stored trace blob — the hinted-handoff replay
// source. Like every trace read it goes past the store's read cache: no
// client ever reads a trace blob.
func (cn *clusterNode) FetchTrace(id string) ([]byte, bool, error) {
	return cn.s.st.GetTraceBytes(store.TraceID(id))
}

// ---- public surface on Server ----

// Cluster returns the ring cluster runtime, nil in single-node mode.
func (s *Server) Cluster() *ring.Cluster {
	if s.cluster == nil {
		return nil
	}
	return s.cluster.ring
}

// ServeCluster accepts inbound cluster RPCs on l (cluster mode only).
// It blocks; a clean shutdown returns nil.
func (s *Server) ServeCluster(l net.Listener) error {
	if s.cluster == nil {
		return fmt.Errorf("serve: not in cluster mode")
	}
	return s.cluster.ring.Serve(l)
}

// Kill crashes the server in place — the in-process stand-in for
// SIGKILL in failure tests: the cluster listener and every inter-node
// connection close mid-flight, workers stop without draining, nothing
// is flushed beyond what the store already made durable. A killed
// node's acked traces survive by construction: their blobs (and, per
// ReplicaAck, their follower copies) were fsynced before the ack.
func (s *Server) Kill() {
	if s.draining.Swap(true) {
		return
	}
	close(s.quit)
	if s.alerts != nil {
		s.alerts.Stop()
	}
	if s.cluster != nil {
		s.cluster.ring.Kill()
	}
	s.runCancel()
}

// handleCluster serves the versioned routing table: membership, ring
// parameters, per-peer health, and the table version clients use to
// detect disagreeing nodes.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cluster.ring.Info())
}
