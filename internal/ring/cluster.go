package ring

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/events"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// Config configures one cluster node.
type Config struct {
	// Self is this node's ID; it must appear in Nodes.
	Self string
	// Nodes is the full static membership, identical on every node.
	Nodes []Node
	// VirtualNodes is the ring points per member (<= 0: default).
	VirtualNodes int
	// Replication is the total copies of each trace, owner included
	// (<= 0: default 2; capped at the member count).
	Replication int
	// ReplicaAck is how many follower copies must be durable before an
	// ingest is acknowledged, in addition to the owner's own fsync.
	// 0 acks after the owner alone (fully asynchronous replication —
	// an owner dying before replication loses its unreplicated acks);
	// the default 1 keeps every ack crash-safe against any single node
	// loss. Capped at Replication-1. Negative selects the default.
	ReplicaAck int
	// ProbeInterval paces the per-peer health probes (<= 0: 1s).
	ProbeInterval time.Duration
	// RPCTimeout bounds one inter-node call (<= 0: 10s).
	RPCTimeout time.Duration
	// HedgeAfter is how long a routed read waits on the preferred
	// replica before hedging to the next one (<= 0: 100ms).
	HedgeAfter time.Duration
	// HintRetry paces hinted-handoff replay attempts (<= 0: 2s).
	HintRetry time.Duration
	// RepairAfter is how long a replica waits for the owner's result
	// push before categorizing a replicated trace itself (<= 0: 5s).
	// The serve tier's repair loop reads it; the cluster only carries it.
	RepairAfter time.Duration
	// Log receives cluster lifecycle events (nil: silent).
	Log *slog.Logger
	// Registry hosts the mosaic_ring_* metrics (nil: private registry).
	Registry *telemetry.Registry
	// Flight, when non-nil, records inbound RPC traces (cross-node span
	// trees) into this flight recorder.
	Flight *reqtrace.Recorder
	// Events, when non-nil, receives cluster health events (peer
	// up/down, hinted-handoff activity, routing-version mismatches).
	Events *events.Log
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 10 * time.Second
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 100 * time.Millisecond
	}
	if c.HintRetry <= 0 {
		c.HintRetry = 2 * time.Second
	}
	if c.RepairAfter <= 0 {
		c.RepairAfter = 5 * time.Second
	}
	return c
}

// ItemStatus is the per-trace outcome of a forwarded ingest, mirroring
// the serve tier's IngestItem without importing it (ring sits below
// serve).
type ItemStatus struct {
	ID     string `json:"id,omitempty"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// NodeStats is one node's contribution to scatter-gathered /v1/stats.
type NodeStats struct {
	Node       string `json:"node"`
	Up         bool   `json:"up"`
	Indexed    int    `json:"indexed_traces"`
	QueueDepth int    `json:"queue_depth"`
	Pending    int    `json:"pending"`
	Traces     int64  `json:"store_traces"`
	Results    int64  `json:"store_results"`
}

// Backend is the node-local service the cluster dispatches inbound
// RPCs to — implemented by the serve tier. Blob slices passed in alias
// the connection read buffer; implementations must copy what they keep.
type Backend interface {
	// HandleIngest ingests traces this node owns (forwarded by a peer):
	// persist durably, queue categorization, replicate onward. One
	// status per blob, in order. ids[i] is blobs[i]'s content address,
	// computed by the forwarding node from the canonical encoding it
	// ships — receivers persist under it without re-hashing.
	HandleIngest(ctx context.Context, reqID string, ids []string, blobs [][]byte) []ItemStatus
	// HandleReplicate persists follower copies durably without
	// categorizing them (the owner pushes results separately). IDs
	// pair with blobs as in HandleIngest.
	HandleReplicate(ctx context.Context, reqID string, ids []string, blobs [][]byte) error
	// HandleResultPush stores a result computed by the trace's owner:
	// result is the owner's stored record, opaque to the ring (or, from
	// a node that predates that form, the compact result document).
	HandleResultPush(ctx context.Context, id, fp string, result []byte) error
	// HandleQuery answers a boolean category query over the local index.
	HandleQuery(ctx context.Context, q string) ([]string, error)
	// HandleStats reports local statistics.
	HandleStats(ctx context.Context) NodeStats
	// HandleResult returns the locally stored result record of one trace.
	HandleResult(ctx context.Context, id string) ([]byte, bool, error)
	// FetchTrace returns the locally stored blob of one trace — the
	// hinted-handoff replay source.
	FetchTrace(id string) ([]byte, bool, error)
	// HandleStatus reports the node's self-assessed health and vitals —
	// the per-node entry of the fleet health document.
	HandleStatus(ctx context.Context) StatusSnapshot
	// HandleMetrics returns the node's full metrics export as
	// JSON-encoded telemetry family snapshots, for federation.
	HandleMetrics(ctx context.Context) ([]byte, error)
}

// peer is one remote member plus its health state. The backoff fields
// are owned by the probe goroutine; up is the shared flag request
// paths read and transport failures clear.
type peer struct {
	node   Node
	client *Client
	up     atomic.Bool

	failStreak int       // probe-goroutine only
	nextProbe  time.Time // probe-goroutine only
}

// Cluster is one node's view of the ring: the routing table, a client
// per peer, the inbound RPC server, health probes, and the
// hinted-handoff backlog.
type Cluster struct {
	cfg     Config
	table   *Table
	self    Node
	backend Backend
	srv     *Server
	peers   map[string]*peer // keyed by node ID; excludes self
	order   []string         // peer IDs in ring (ID) order
	met     *Metrics
	log     *slog.Logger
	events  *events.Log // nil: no journal

	hintMu sync.Mutex
	hints  map[string]map[string]struct{} // peer ID -> trace IDs owed

	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// maxHintsPerPeer caps the hinted-handoff backlog owed to one peer;
// hints past it are dropped (and counted) — the replica repair loop
// and restart-time backfill remain the backstop.
const maxHintsPerPeer = 8192

// NewCluster builds the node's cluster runtime and starts its health
// probe and hint replay loops. Serve must still be called with the RPC
// listener; Shutdown (or Kill) stops everything.
func NewCluster(cfg Config, backend Backend) (*Cluster, error) {
	cfg = cfg.withDefaults()
	table, err := NewTable(cfg.Nodes, cfg.VirtualNodes, cfg.Replication)
	if err != nil {
		return nil, err
	}
	self, ok := table.NodeByID(cfg.Self)
	if !ok {
		return nil, fmt.Errorf("ring: self %q not in membership", cfg.Self)
	}
	if cfg.ReplicaAck < 0 || cfg.ReplicaAck > table.RF()-1 {
		cfg.ReplicaAck = min(1, table.RF()-1)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Cluster{
		cfg:     cfg,
		table:   table,
		self:    self,
		backend: backend,
		peers:   make(map[string]*peer),
		met:     newMetrics(reg),
		log:     cfg.Log,
		events:  cfg.Events,
		hints:   make(map[string]map[string]struct{}),
		quit:    make(chan struct{}),
	}
	for _, n := range table.Nodes() {
		if n.ID == self.ID {
			continue
		}
		p := &peer{node: n, client: NewClient(n.Addr, cfg.RPCTimeout)}
		p.up.Store(true) // optimistic: the first probe or call corrects
		c.peers[n.ID] = p
		c.order = append(c.order, n.ID)
	}
	c.met.PeersUp.Set(float64(len(c.peers)))
	hello, _ := json.Marshal(pingInfo{Node: self.ID, Version: table.Version()})
	c.srv = NewServer(ServerOptions{Log: cfg.Log, Flight: cfg.Flight, Hello: hello})
	c.registerHandlers()
	c.wg.Add(2)
	go c.probeLoop()
	go c.hintLoop()
	return c, nil
}

// pingInfo is the OpPing response body.
type pingInfo struct {
	Node    string `json:"node"`
	Version uint64 `json:"version"`
}

// Table returns the routing table.
func (c *Cluster) Table() *Table { return c.table }

// Self returns this node's membership entry.
func (c *Cluster) Self() Node { return c.self }

// ReplicaAck returns the effective follower-ack requirement.
func (c *Cluster) ReplicaAck() int { return c.cfg.ReplicaAck }

// Metrics returns the ring instrument bundle, shared with the serve
// tier (which owns the degraded-ack accounting).
func (c *Cluster) Metrics() *Metrics { return c.met }

// RepairAfter returns the replica self-repair deadline.
func (c *Cluster) RepairAfter() time.Duration { return c.cfg.RepairAfter }

// Healthy reports whether a node is believed reachable (self: true).
func (c *Cluster) Healthy(id string) bool {
	if id == c.self.ID {
		return true
	}
	p, ok := c.peers[id]
	return ok && p.up.Load()
}

// Serve accepts inbound cluster RPCs on l. It blocks; a clean
// shutdown returns nil.
func (c *Cluster) Serve(l net.Listener) error { return c.srv.Serve(l) }

// Shutdown stops the background loops and drains the RPC server.
func (c *Cluster) Shutdown(ctx context.Context) error {
	c.stopOnce.Do(func() { close(c.quit) })
	c.wg.Wait()
	err := c.srv.Shutdown(ctx)
	for _, p := range c.peers {
		p.client.Close()
	}
	return err
}

// Kill crashes the node's cluster presence: listener and every
// connection — inbound and outbound — closed immediately, background
// loops stopped, nothing drained. Failure tests use it as the
// in-process stand-in for SIGKILL; after Kill the node can neither
// serve nor originate any RPC.
func (c *Cluster) Kill() {
	c.stopOnce.Do(func() { close(c.quit) })
	c.srv.Kill()
	for _, p := range c.peers {
		p.client.Close()
	}
	c.wg.Wait()
}

// ---- outbound calls ----

// callPeer performs one RPC to a peer, with metrics and health
// tracking: a transport failure marks the peer down (the probe loop
// brings it back); an application-level RemoteError or ErrNotFound
// does not.
func (c *Cluster) callPeer(ctx context.Context, p *peer, op byte, opName, reqID string, body []byte) ([]byte, error) {
	start := time.Now()
	resp, err := p.client.Call(ctx, op, opName, reqID, body)
	c.met.RPCSeconds.Observe(time.Since(start).Seconds())
	// A miss is an answer, and a call its own caller cancelled (the loser
	// of a hedged fetch, a client that hung up) says nothing about the peer.
	if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, context.Canceled) {
		c.met.RPCErrors.Inc()
		var re *RemoteError
		if !errors.As(err, &re) {
			c.markDown(p, err)
		}
	}
	return resp, err
}

func (c *Cluster) peerByID(id string) (*peer, error) {
	p, ok := c.peers[id]
	if !ok {
		return nil, fmt.Errorf("ring: unknown peer %q", id)
	}
	return p, nil
}

func (c *Cluster) markDown(p *peer, err error) {
	if p.up.Swap(false) {
		c.updatePeersUp()
		if c.log != nil {
			c.log.Warn("ring: peer down", "peer", p.node.ID, "addr", p.node.Addr, "err", err)
		}
		if c.events != nil {
			c.events.Emit(events.SevWarn, events.TypeNodeDown, "peer unreachable",
				"peer", p.node.ID, "addr", p.node.Addr, "err", err.Error())
		}
	}
}

func (c *Cluster) markUp(p *peer) {
	if !p.up.Swap(true) {
		c.updatePeersUp()
		if c.log != nil {
			c.log.Info("ring: peer up", "peer", p.node.ID, "addr", p.node.Addr)
		}
		if c.events != nil {
			c.events.Emit(events.SevInfo, events.TypeNodeUp, "peer reachable again",
				"peer", p.node.ID, "addr", p.node.Addr)
		}
	}
}

func (c *Cluster) updatePeersUp() {
	n := 0
	for _, p := range c.peers {
		if p.up.Load() {
			n++
		}
	}
	c.met.PeersUp.Set(float64(n))
}

// sendPairs performs one bulk-data RPC: ids and blobs travel as an
// appendPairs body built in pooled scratch.
func (c *Cluster) sendPairs(ctx context.Context, p *peer, op byte, opName, reqID string, ids []string, blobs [][]byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
	defer cancel()
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	body, err := appendPairs((*bp)[:0], ids, blobs)
	if err != nil {
		return nil, err
	}
	*bp = body[:0]
	return c.callPeer(ctx, p, op, opName, reqID, body)
}

// ForwardIngest routes a group of trace blobs — each paired with its
// content address — to their owner node and returns the owner's
// per-item statuses, in blob order.
func (c *Cluster) ForwardIngest(ctx context.Context, reqID, peerID string, ids []string, blobs [][]byte) ([]ItemStatus, error) {
	p, err := c.peerByID(peerID)
	if err != nil {
		return nil, err
	}
	resp, err := c.sendPairs(ctx, p, OpIngest, "ingest", reqID, ids, blobs)
	if err != nil {
		return nil, err
	}
	var out struct {
		Items []ItemStatus `json:"items"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return nil, fmt.Errorf("ring: decoding ingest reply from %s: %w", peerID, err)
	}
	if len(out.Items) != len(blobs) {
		return nil, fmt.Errorf("ring: peer %s answered %d statuses for %d blobs", peerID, len(out.Items), len(blobs))
	}
	c.met.ForwardedTraces.Add(int64(len(blobs)))
	return out.Items, nil
}

// Replicate ships follower copies of the given blobs to one peer,
// synchronously. On failure the trace IDs are recorded as hints for
// later replay and the error returned (callers decide whether the
// failure degrades an ack or was best-effort anyway).
func (c *Cluster) Replicate(ctx context.Context, reqID, peerID string, ids []string, blobs [][]byte) error {
	p, err := c.peerByID(peerID)
	if err != nil {
		return err
	}
	if _, err := c.sendPairs(ctx, p, OpReplicate, "replicate", reqID, ids, blobs); err != nil {
		c.Hint(peerID, ids)
		return err
	}
	c.met.ReplicatedTraces.Add(int64(len(blobs)))
	return nil
}

// bodyPool recycles the request-body scratch of the bulk-data RPCs
// (ForwardIngest, Replicate): batch bodies run to a megabyte and are
// garbage the moment the synchronous call returns.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// appendPairs encodes parallel id/blob slices as an alternating blob
// list — the OpIngest and OpReplicate body format. Shipping the
// content address next to each blob lets every downstream node (owner,
// followers) persist without re-hashing; only the entry node pays the
// SHA-256 pass.
func appendPairs(body []byte, ids []string, blobs [][]byte) ([]byte, error) {
	if len(ids) != len(blobs) {
		return nil, fmt.Errorf("ring: %d ids for %d blobs", len(ids), len(blobs))
	}
	total := len(body)
	for i, b := range blobs {
		total += 8 + len(ids[i]) + len(b)
	}
	if cap(body) < total {
		grown := make([]byte, len(body), total)
		copy(grown, body)
		body = grown
	}
	for i, b := range blobs {
		body = AppendBlob(body, []byte(ids[i]))
		body = AppendBlob(body, b)
	}
	return body, nil
}

// splitPairs decodes an alternating id/blob body built by appendPairs.
// The blob slices alias body; the ids are copied out.
func splitPairs(body []byte) ([]string, [][]byte, error) {
	parts, err := SplitBlobs(body, maxPairItems)
	if err != nil {
		return nil, nil, err
	}
	if len(parts)%2 != 0 {
		return nil, nil, fmt.Errorf("ring: odd id/blob element count %d", len(parts))
	}
	ids := make([]string, len(parts)/2)
	blobs := make([][]byte, len(parts)/2)
	for i := range ids {
		ids[i] = string(parts[2*i])
		blobs[i] = parts[2*i+1]
	}
	return ids, blobs, nil
}

// Hint records trace IDs owed to a peer for hinted-handoff replay.
func (c *Cluster) Hint(peerID string, ids []string) {
	c.hintMu.Lock()
	set := c.hints[peerID]
	if set == nil {
		set = make(map[string]struct{})
		c.hints[peerID] = set
	}
	queued, dropped := 0, 0
	for _, id := range ids {
		if _, ok := set[id]; ok {
			continue
		}
		if len(set) >= maxHintsPerPeer {
			dropped++
			continue
		}
		set[id] = struct{}{}
		queued++
	}
	total := 0
	for _, s := range c.hints {
		total += len(s)
	}
	c.hintMu.Unlock()
	c.met.HintsQueued.Add(int64(queued))
	c.met.HintsDropped.Add(int64(dropped))
	c.met.HintsPending.Set(float64(total))
	if queued > 0 && c.events != nil {
		c.events.Emit(events.SevWarn, events.TypeHintQueued, "replication owed to peer queued as hints",
			"peer", peerID, "queued", strconv.Itoa(queued), "pending", strconv.Itoa(total))
	}
	if dropped > 0 {
		if c.log != nil {
			c.log.Warn("ring: hint backlog full, dropping", "peer", peerID, "dropped", dropped)
		}
		if c.events != nil {
			c.events.Emit(events.SevError, events.TypeHintDropped, "hint backlog full, replication debt dropped",
				"peer", peerID, "dropped", strconv.Itoa(dropped))
		}
	}
}

// takeHints pops up to n hinted trace IDs owed to a peer.
func (c *Cluster) takeHints(peerID string, n int) []string {
	c.hintMu.Lock()
	defer c.hintMu.Unlock()
	set := c.hints[peerID]
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, min(n, len(set)))
	for id := range set {
		if len(out) >= n {
			break
		}
		out = append(out, id)
		delete(set, id)
	}
	return out
}

// PushResult ships an owner-computed categorization result to the
// trace's other replicas, asynchronously and best-effort: a replica
// that misses the push repairs itself after RepairAfter.
func (c *Cluster) PushResult(reqID, id, fp string, result []byte, peerIDs []string) {
	body := appendResultPush(nil, id, fp, result)
	for _, pid := range peerIDs {
		p, perr := c.peerByID(pid)
		if perr != nil || !p.up.Load() {
			continue
		}
		// Not tracked by c.wg: pushes are best-effort and time-bounded,
		// and adding to the group concurrently with a shutdown Wait
		// would race.
		go func(p *peer) {
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RPCTimeout)
			defer cancel()
			if _, err := c.callPeer(ctx, p, OpResultPush, "resultpush", reqID, body); err != nil {
				if c.log != nil {
					c.log.Debug("ring: result push failed (replica will self-repair)",
						"peer", p.node.ID, "id", id, "err", err)
				}
				return
			}
			c.met.ResultPushes.Inc()
		}(p)
	}
}

// The OpResultPush body is a blob list of three: trace ID, fingerprint,
// result record — the record's bytes travel as they are stored. Nodes
// that predate the store's served result form send a JSON object
// instead, with the compact result document embedded; parseResultPush
// still reads it (the store converts the document). A blob list starts
// with the ID's length, never with '{'.
func appendResultPush(dst []byte, id, fp string, result []byte) []byte {
	dst = AppendBlob(dst, []byte(id))
	dst = AppendBlob(dst, []byte(fp))
	return AppendBlob(dst, result)
}

// parseResultPush decodes an OpResultPush body of either form; result
// aliases body.
func parseResultPush(body []byte) (id, fp string, result []byte, err error) {
	if len(body) > 0 && body[0] == '{' {
		var push struct {
			ID          string          `json:"id"`
			Fingerprint string          `json:"fp"`
			Result      json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &push); err != nil {
			return "", "", nil, err
		}
		return push.ID, push.Fingerprint, push.Result, nil
	}
	parts, err := SplitBlobs(body, 3)
	if err != nil {
		return "", "", nil, err
	}
	if len(parts) != 3 {
		return "", "", nil, fmt.Errorf("ring: result push holds %d blobs, want id, fingerprint and record", len(parts))
	}
	return string(parts[0]), string(parts[1]), parts[2], nil
}

// scatter sends op to every peer and calls each once per peer, with the
// peer's place in ring order and its reply. A peer believed up is asked
// on its own goroutine under one RPC timeout and each runs there, beside
// the other peers'; a peer already down is not asked and each gets
// errPeerDown. scatter returns once every call to each has.
func (c *Cluster) scatter(ctx context.Context, op byte, name, reqID string, body []byte, each func(i int, pid string, resp []byte, err error)) {
	var wg sync.WaitGroup
	for i, pid := range c.order {
		p := c.peers[pid]
		if !p.up.Load() {
			each(i, pid, nil, errPeerDown)
			continue
		}
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
			defer cancel()
			resp, err := c.callPeer(cctx, p, op, name, reqID, body)
			each(i, p.node.ID, resp, err)
		}(i, p)
	}
	wg.Wait()
}

// ScatterQuery fans a boolean query out to every live peer and returns
// one match list per answering peer, each already sorted by the
// shard's index (duplicates across replicas land in different lists —
// the caller runs the K-way merge), plus any per-peer failures. Down
// peers are skipped and reported in errs; with replication >= 2 their
// shard remains covered by the surviving replicas.
func (c *Cluster) ScatterQuery(ctx context.Context, reqID, q string) (lists [][]string, errs map[string]error) {
	body, _ := json.Marshal(struct {
		Q string `json:"q"`
	}{Q: q})
	replies := make([]struct {
		ids []string
		err error
	}, len(c.order))
	c.scatter(ctx, OpQuery, "query", reqID, body, func(i int, _ string, resp []byte, err error) {
		var out struct {
			IDs []string `json:"ids"`
		}
		if err == nil {
			err = json.Unmarshal(resp, &out)
		}
		replies[i].ids, replies[i].err = out.IDs, err
	})
	lists = make([][]string, 0, len(replies))
	for i, r := range replies {
		switch {
		case r.err != nil:
			if errs == nil {
				errs = make(map[string]error)
			}
			errs[c.order[i]] = r.err
		case len(r.ids) > 0:
			lists = append(lists, r.ids)
		}
	}
	return lists, errs
}

// ScatterStats collects every peer's NodeStats (down or failed peers
// appear with Up=false), in ring order.
func (c *Cluster) ScatterStats(ctx context.Context, reqID string) []NodeStats {
	out := make([]NodeStats, len(c.order))
	c.scatter(ctx, OpStats, "stats", reqID, nil, func(i int, pid string, resp []byte, err error) {
		var ns NodeStats
		if err == nil && json.Unmarshal(resp, &ns) == nil {
			ns.Up = true
			out[i] = ns
			return
		}
		out[i] = NodeStats{Node: pid}
	})
	return out
}

// FetchResult reads one trace's stored result from its replica set
// with hedging: the preferred (first live) replica is asked first; if
// it has not answered within HedgeAfter, the next replica is asked in
// parallel, and the first definite answer wins. (nil, false, nil) means
// every other replica answered "not found"; a replica that is down or
// failed to answer makes a miss an error, because the trace may be
// acknowledged and durable exactly there.
func (c *Cluster) FetchResult(ctx context.Context, reqID, id string) ([]byte, bool, error) {
	var cands []*peer
	var lastErr error
	for _, n := range c.table.Replicas(id) {
		if n.ID == c.self.ID {
			continue
		}
		if p, ok := c.peers[n.ID]; ok && p.up.Load() {
			cands = append(cands, p)
		} else {
			lastErr = fmt.Errorf("ring: replica %s of %s is down", n.ID, id)
		}
	}
	if len(cands) == 0 {
		return nil, false, lastErr
	}
	type reply struct {
		data []byte
		ok   bool
		err  error
	}
	ch := make(chan reply, len(cands))
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
	defer cancel()
	ask := func(p *peer) {
		resp, err := c.callPeer(ctx, p, OpResult, "result", reqID, []byte(id))
		switch {
		case err == nil:
			ch <- reply{data: resp, ok: true}
		case errors.Is(err, ErrNotFound):
			ch <- reply{}
		default:
			ch <- reply{err: err}
		}
	}
	launched := 1
	go ask(cands[0])
	hedge := time.NewTimer(c.cfg.HedgeAfter)
	defer hedge.Stop()
	for done := 0; done < launched; {
		select {
		case r := <-ch:
			done++
			if r.ok {
				return r.data, true, nil
			}
			if r.err != nil {
				lastErr = r.err
			}
			// A definite miss or error: ask the next replica right away.
			if launched < len(cands) {
				go ask(cands[launched])
				launched++
			}
		case <-hedge.C:
			if launched < len(cands) {
				c.met.HedgedRequests.Inc()
				go ask(cands[launched])
				launched++
			}
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	return nil, false, lastErr
}

// ---- inbound handlers ----

func (c *Cluster) registerHandlers() {
	c.srv.Handle(OpIngest, "ingest", func(ctx context.Context, f *Frame) ([]byte, error) {
		ids, blobs, err := splitPairs(f.Body)
		if err != nil {
			return nil, err
		}
		items := c.backend.HandleIngest(ctx, f.RequestID, ids, blobs)
		return json.Marshal(struct {
			Items []ItemStatus `json:"items"`
		}{Items: items})
	})
	c.srv.Handle(OpReplicate, "replicate", func(ctx context.Context, f *Frame) ([]byte, error) {
		ids, blobs, err := splitPairs(f.Body)
		if err != nil {
			return nil, err
		}
		return nil, c.backend.HandleReplicate(ctx, f.RequestID, ids, blobs)
	})
	c.srv.Handle(OpResultPush, "resultpush", func(ctx context.Context, f *Frame) ([]byte, error) {
		id, fp, result, err := parseResultPush(f.Body)
		if err != nil {
			return nil, err
		}
		return nil, c.backend.HandleResultPush(ctx, id, fp, result)
	})
	c.srv.Handle(OpQuery, "query", func(ctx context.Context, f *Frame) ([]byte, error) {
		var req struct {
			Q string `json:"q"`
		}
		if err := json.Unmarshal(f.Body, &req); err != nil {
			return nil, err
		}
		ids, err := c.backend.HandleQuery(ctx, req.Q)
		if err != nil {
			return nil, err
		}
		return json.Marshal(struct {
			IDs []string `json:"ids"`
		}{IDs: ids})
	})
	c.srv.Handle(OpStats, "stats", func(ctx context.Context, f *Frame) ([]byte, error) {
		return json.Marshal(c.backend.HandleStats(ctx))
	})
	c.srv.Handle(OpResult, "result", func(ctx context.Context, f *Frame) ([]byte, error) {
		data, ok, err := c.backend.HandleResult(ctx, string(f.Body))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, ErrNotFound
		}
		return data, nil
	})
	c.srv.Handle(OpTable, "table", func(ctx context.Context, f *Frame) ([]byte, error) {
		return json.Marshal(c.Info())
	})
	c.srv.Handle(OpStatus, "status", func(ctx context.Context, f *Frame) ([]byte, error) {
		return json.Marshal(c.backend.HandleStatus(ctx))
	})
	c.srv.Handle(OpMetricsSnap, "metrics", func(ctx context.Context, f *Frame) ([]byte, error) {
		return c.backend.HandleMetrics(ctx)
	})
}

// ---- background loops ----

// probeLoop pings every peer on ProbeInterval, with exponential
// backoff (capped at 16× the interval) on consecutively failing peers
// so a long outage is not hammered. A probe answered with a different
// routing-table version is a configuration error worth surfacing: the
// nodes would route the same key differently.
func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-tick.C:
		}
		now := time.Now()
		for _, pid := range c.order {
			p := c.peers[pid]
			if now.Before(p.nextProbe) {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeInterval)
			resp, err := p.client.Call(ctx, OpPing, "ping", "probe", nil)
			cancel()
			if err != nil {
				c.met.ProbeFailures.Inc()
				c.markDown(p, err)
				p.failStreak++
				backoff := c.cfg.ProbeInterval << min(p.failStreak, 4)
				p.nextProbe = now.Add(backoff)
				continue
			}
			p.failStreak = 0
			p.nextProbe = time.Time{}
			var info pingInfo
			if json.Unmarshal(resp, &info) == nil && info.Version != 0 && info.Version != c.table.Version() {
				c.met.VersionMismatches.Inc()
				if c.log != nil {
					c.log.Error("ring: routing-table version mismatch",
						"peer", pid, "peer_version", info.Version, "local_version", c.table.Version())
				}
				if c.events != nil {
					c.events.Emit(events.SevError, events.TypeVersionMismatch, "routing-table version mismatch",
						"peer", pid,
						"peer_version", strconv.FormatUint(info.Version, 16),
						"local_version", strconv.FormatUint(c.table.Version(), 16))
				}
			}
			c.markUp(p)
		}
	}
}

// hintLoop replays hinted handoffs: once a peer that was owed
// replications is back up, its hinted traces are re-read from the
// local store and shipped in batches until the backlog drains.
func (c *Cluster) hintLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HintRetry)
	defer tick.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-tick.C:
		}
		for _, pid := range c.order {
			p := c.peers[pid]
			if !p.up.Load() {
				continue
			}
			for {
				ids := c.takeHints(pid, 64)
				if len(ids) == 0 {
					break
				}
				var (
					blobs [][]byte
					kept  []string
				)
				for _, id := range ids {
					blob, ok, err := c.backend.FetchTrace(id)
					if err != nil || !ok {
						continue // superseded or unreadable: nothing to replay
					}
					blobs = append(blobs, blob)
					kept = append(kept, id)
				}
				if len(blobs) == 0 {
					continue
				}
				if err := c.Replicate(context.Background(), "hint-replay", pid, kept, blobs); err != nil {
					// Replicate re-hinted the IDs; stop until the next tick.
					break
				}
				c.met.HintsReplayed.Add(int64(len(blobs)))
				c.updateHintsPending()
				if c.events != nil {
					c.events.Emit(events.SevInfo, events.TypeHintReplayed, "hinted handoff replayed to recovered peer",
						"peer", pid, "count", strconv.Itoa(len(blobs)))
				}
			}
		}
	}
}

func (c *Cluster) updateHintsPending() {
	c.hintMu.Lock()
	total := 0
	for _, s := range c.hints {
		total += len(s)
	}
	c.hintMu.Unlock()
	c.met.HintsPending.Set(float64(total))
}

// ---- cluster introspection ----

// NodeInfo is one member in the /v1/cluster document.
type NodeInfo struct {
	ID       string `json:"id"`
	Addr     string `json:"addr"`
	HTTPAddr string `json:"http_addr,omitempty"`
	Self     bool   `json:"self,omitempty"`
	Up       bool   `json:"up"`
}

// Info is the versioned routing-table document served from
// GET /v1/cluster.
type Info struct {
	Self         string     `json:"self"`
	Version      string     `json:"version"` // hex of the membership hash
	VirtualNodes int        `json:"virtual_nodes"`
	Replication  int        `json:"replication"`
	ReplicaAck   int        `json:"replica_ack"`
	Nodes        []NodeInfo `json:"nodes"`
}

// Info returns the routing-table document.
func (c *Cluster) Info() Info {
	info := Info{
		Self:         c.self.ID,
		Version:      strconv.FormatUint(c.table.Version(), 16),
		VirtualNodes: c.table.VirtualNodes(),
		Replication:  c.table.RF(),
		ReplicaAck:   c.cfg.ReplicaAck,
	}
	for _, n := range c.table.Nodes() {
		ni := NodeInfo{ID: n.ID, Addr: n.Addr, HTTPAddr: n.HTTPAddr}
		if n.ID == c.self.ID {
			ni.Self, ni.Up = true, true
		} else {
			ni.Up = c.peers[n.ID].up.Load()
		}
		info.Nodes = append(info.Nodes, ni)
	}
	sort.Slice(info.Nodes, func(i, j int) bool { return info.Nodes[i].ID < info.Nodes[j].ID })
	return info
}
