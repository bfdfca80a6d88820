package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/events"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
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
	if rcfg.OnTrace == nil {
		rcfg.OnTrace = s.onTraceDone
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

// ---- placement (outbound) ----

// route is the ring's step on the write path (see ingest.go). The node
// an upload lands on, the entry, places each trace once: its acting
// owner (actingOwner) and the first ReplicaAck live followers under it
// (placement). It then makes every copy the ack waits for itself, all at
// once: this node's owned share goes to its store, each other owner's
// share is one OpIngestPlaced RPC naming the followers placed, each
// follower's copies are one OpReplicate — or a local store write when
// this node is the follower. No ack waits on a second hop: the owners
// persist and queue, and place only the followers left unplaced
// (placeRest). Branches write disjoint slots of out, and this node's
// share is queued after every branch has returned, so categorization
// starts after the durable waits. A follower copy that fails goes to its
// trace's owner as an unplaced item, whose first status stands; a
// forward that fails re-routes its share with the peer tried. tried is
// only read; a trace with no replica left lands here — the sloppy write
// that keeps an ingest succeeding through any single-node failure.
func (cn *clusterNode) route(ctx context.Context, reqID string, group []routedItem, tried map[string]bool, out []IngestItem) {
	self := cn.ring.Self().ID
	owners := make([]string, len(group))
	placed := make([][]string, len(group))
	var own []int                      // positions in group this node owns
	forwards := make(map[string][]int) // owner peer → positions
	copies := make(map[string][]int)   // follower, this node included → positions
	failed := make(map[string]bool)    // followers whose copies failed
	for k, it := range group {
		owner := cn.actingOwner(string(it.id), tried)
		owners[k] = owner
		placed[k] = cn.placement(string(it.id), owner, nil).sync
		if owner == self {
			own = append(own, k)
		} else {
			forwards[owner] = append(forwards[owner], k)
		}
		for _, f := range placed[k] {
			copies[f] = append(copies[f], k)
		}
	}
	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		forwarded = make(map[string]bool) // owners that answered
	)
	// The branches take their shares as arguments: a group that no
	// goroutine captures stays on its caller's stack.
	for pid, ks := range forwards {
		wg.Add(1)
		go func(pid string, g []routedItem, pl [][]string) {
			defer wg.Done()
			if cn.forward(ctx, reqID, pid, g, pl, tried, out) {
				mu.Lock()
				forwarded[pid] = true
				mu.Unlock()
			}
		}(pid, pick(group, ks), pickPlaced(placed, ks))
	}
	for f, ks := range copies {
		wg.Add(1)
		go func(f string, g []routedItem) {
			defer wg.Done()
			ids, blobs := pairs(g)
			var err error
			if f == self {
				err = cn.HandleReplicate(ctx, reqID, ids, blobs)
			} else {
				err = cn.ring.Copy(ctx, reqID, f, ids, blobs)
			}
			if err != nil {
				mu.Lock()
				failed[f] = true
				mu.Unlock()
				if log := cn.s.log; log != nil {
					log.Warn("cluster: follower copy failed, handing it to the owner",
						"request_id", reqID, "peer", f, "traces", len(ids), "err", err)
				}
			}
		}(f, pick(group, ks))
	}
	ownG := pick(group, own)
	persisted := len(ownG) > 0 && cn.s.persist(ctx, ownG, out)
	wg.Wait()
	if len(failed) > 0 {
		// The copies that failed go to the owners that answered, which
		// hold the blobs and place what is still missing; this node's own
		// share places them below.
		unplaced := make(map[string][]int)
		for k := range group {
			if owners[k] != self && forwarded[owners[k]] && slices.ContainsFunc(placed[k], func(f string) bool { return failed[f] }) {
				unplaced[owners[k]] = append(unplaced[owners[k]], k)
			}
		}
		missing := make([][]string, len(group)) // followers whose copies failed, per trace
		for k := range placed {
			for _, f := range placed[k] {
				if failed[f] {
					missing[k] = append(missing[k], f)
				}
			}
			placed[k] = slices.DeleteFunc(slices.Clone(placed[k]), func(f string) bool { return failed[f] })
		}
		for pid, ks := range unplaced {
			ids, blobs := pairs(pick(group, ks))
			if _, err := cn.ring.ForwardPlaced(ctx, reqID, pid, ids, blobs, pickPlaced(placed, ks)); err != nil {
				cn.holdCopies(ctx, reqID, pick(group, ks), pickPlaced(missing, ks), err)
			}
		}
	}
	if persisted {
		cn.placeRest(ctx, reqID, ownG, pickPlaced(placed, own))
		cn.s.queueGroup(ctx, reqID, ownG, out)
	}
}

// holdCopies makes this node the holder of follower copies that neither
// it nor the trace's owner placed — the owner answered the share and then
// failed the retry: it stores the blobs, as a follower would, and hints
// missing[i], the followers group[i] still lacks, from here, where the
// blob is. The ack goes out with fewer durable copies than configured.
func (cn *clusterNode) holdCopies(ctx context.Context, reqID string, group []routedItem, missing [][]string, cause error) {
	cn.ring.Metrics().DegradedAcks.Add(int64(len(group)))
	cn.emitDegradedAck(reqID, len(group), "owner could not place a failed follower copy: "+cause.Error())
	ids, blobs := pairs(group)
	if err := cn.HandleReplicate(ctx, reqID, ids, blobs); err != nil {
		if log := cn.s.log; log != nil {
			log.Warn("cluster: follower copies lost: neither the owner nor this node could hold them",
				"request_id", reqID, "traces", len(ids), "err", err)
		}
		return
	}
	self := cn.ring.Self().ID
	owed := make(map[string][]string) // follower → trace IDs
	for i, id := range ids {
		for _, f := range missing[i] {
			if f != self {
				owed[f] = append(owed[f], id)
			}
		}
	}
	for f, fids := range owed {
		cn.ring.Hint(f, fids)
	}
}

// actingOwner picks the node a trace should be ingested on: the first
// live, untried member of its replica set, or this node when every one
// is down or tried (a sloppy write).
func (cn *clusterNode) actingOwner(key string, tried map[string]bool) string {
	for _, n := range cn.ring.Table().Replicas(key) {
		if !tried[n.ID] && cn.ring.Healthy(n.ID) {
			return n.ID
		}
	}
	return cn.ring.Self().ID
}

// followers is where the follower copies of one trace go.
type followers struct {
	sync  []string // copies the ack waits for
	async []string // copies it does not
	down  []string // followers believed down: hinted by the owner
	acks  int      // synchronous copies, those already placed included
}

// placement classes the followers of key under owner — every other
// replica, in ring order — except those in placed, copies already made,
// which count toward ReplicaAck: a follower believed down is hinted, the
// first live ones get synchronous copies until ReplicaAck exist, the rest
// asynchronous ones.
func (cn *clusterNode) placement(key, owner string, placed []string) followers {
	ackN := cn.ring.ReplicaAck()
	c := followers{acks: len(placed)}
	for _, n := range cn.ring.Table().Replicas(key) {
		switch {
		case n.ID == owner || slices.Contains(placed, n.ID):
		case !cn.ring.Healthy(n.ID):
			c.down = append(c.down, n.ID)
		case c.acks < ackN:
			c.sync = append(c.sync, n.ID)
			c.acks++
		default:
			c.async = append(c.async, n.ID)
		}
	}
	return c
}

// forward ships one owner's share, with the followers placed for each
// trace, and takes the owner's per-item statuses. A forward that fails —
// a transport error, which also marks the peer down, or a reply naming a
// status this node does not know — sends the share back through route
// with the peer tried. It reports whether the owner answered.
func (cn *clusterNode) forward(ctx context.Context, reqID, peerID string, group []routedItem, placed [][]string, tried map[string]bool, out []IngestItem) bool {
	ids, blobs := pairs(group)
	sts, err := cn.ring.ForwardPlaced(ctx, reqID, peerID, ids, blobs, placed)
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
		return true
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
	return false
}

// pick returns the items of group at positions ks.
func pick(group []routedItem, ks []int) []routedItem {
	out := make([]routedItem, len(ks))
	for i, k := range ks {
		out[i] = group[k]
	}
	return out
}

// pickPlaced returns the placed lists at positions ks.
func pickPlaced(placed [][]string, ks []int) [][]string {
	out := make([][]string, len(ks))
	for i, k := range ks {
		out[i] = placed[k]
	}
	return out
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

// placeRest places what is left of each trace's follower copies, on the
// owner, which stores the blobs: placed[i] lists the followers of
// group[i] already copied (nil: none). The rest are hinted when down,
// copied synchronously — grouped per peer, so each follower pays one RPC
// and one fsync — until ReplicaAck copies exist, and asynchronously
// after. With every follower placed by the entry it sends nothing.
func (cn *clusterNode) placeRest(ctx context.Context, reqID string, group []routedItem, placed [][]string) {
	self := cn.ring.Self().ID
	ackN := cn.ring.ReplicaAck()
	var syncG, asyncG map[string][]routedItem
	met := cn.ring.Metrics()
	for i, it := range group {
		var pl []string
		if placed != nil {
			pl = placed[i]
		}
		c := cn.placement(string(it.id), self, pl)
		for _, pid := range c.down {
			cn.ring.Hint(pid, []string{string(it.id)})
		}
		for _, pid := range c.sync {
			if syncG == nil {
				syncG = make(map[string][]routedItem)
			}
			syncG[pid] = append(syncG[pid], it)
		}
		for _, pid := range c.async {
			if asyncG == nil {
				asyncG = make(map[string][]routedItem)
			}
			asyncG[pid] = append(asyncG[pid], it)
		}
		if c.acks < ackN {
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
// replicas (called by the worker after the result is stored): rec is
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
// in for) the ring owner of every blob in the group. It persists the
// group, places the follower copies the sender did not (placed[i] lists
// those it did; nil, from OpIngest: none) and queues it — after its own
// persist when the sender placed every copy the ack waits for.
// Protocol invariant: the forwarding node canonicalized each upload and
// ships the blob with its content address, so nothing is re-encoded or
// re-hashed here, and nothing is decoded either: the blob is walked
// (walkCanonical, under "ingest.decode"), and one that is not canonical
// is refused as unreadable. The worker decodes the stored copy. Upload
// names do not travel; a forwarded item is named by the head of its ID,
// which is what its "item:" span on this node is called.
func (cn *clusterNode) HandleIngest(ctx context.Context, reqID string, ids []string, blobs [][]byte, placed [][]string) []ring.ItemStatus {
	items := make([]IngestItem, len(blobs))
	group := make([]routedItem, 0, len(blobs))
	var kept [][]string // placed lists of the group's items
	dstart, size := time.Now(), 0
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
		size += len(blob)
		canonical, err := walkCanonical(blob)
		if err == nil && !canonical {
			err = errors.New("forwarded blob is not a canonical trace encoding")
		}
		if err != nil {
			items[i] = IngestItem{Status: StatusUnreadable, Error: err.Error()}
			continue
		}
		group = append(group, routedItem{idx: i, name: string(id[:12]), id: id, blob: blob})
		if placed != nil {
			kept = append(kept, placed[i])
		}
	}
	reqtrace.AddSpan(ctx, "ingest.decode", dstart, time.Since(dstart),
		reqtrace.Int("bytes", int64(size)), reqtrace.Int("traces", int64(len(group))))
	if len(group) > 0 && cn.s.persist(ctx, group, items) {
		cn.placeRest(ctx, reqID, group, kept)
		cn.s.queueGroup(ctx, reqID, group, items)
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
