package ring

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"strconv"
	"strings"
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
	// OnTrace, when non-nil, turns on server-side tracing of inbound
	// RPCs and receives each finished RPC trace (a cross-node span tree):
	// a flight recorder's Complete, or a hook that also feeds a budget.
	OnTrace func(*reqtrace.Trace)
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
	// persist durably, place the follower copies the sender did not,
	// queue categorization. One status per blob, in order. ids[i] is
	// blobs[i]'s content address, computed by the forwarding node from
	// the canonical encoding it ships — receivers persist under it
	// without re-hashing. placed[i] lists the followers the sender
	// already copied blobs[i] to; placed is nil for OpIngest, whose
	// sender placed nothing.
	HandleIngest(ctx context.Context, reqID string, ids []string, blobs [][]byte, placed [][]string) []ItemStatus
	// HandleReplicate persists follower copies durably without
	// categorizing them (the owner pushes results separately). IDs
	// pair with blobs as in HandleIngest.
	HandleReplicate(ctx context.Context, reqID string, ids []string, blobs [][]byte) error
	// HandleResultPush stores a result computed by the trace's owner:
	// result is the owner's stored record, opaque to the ring (or, from
	// a node that predates that form, the compact result document).
	HandleResultPush(ctx context.Context, id, fp string, result []byte) error
	// HandleQuery answers a boolean category query over the local index:
	// the first limit matching IDs (all of them when limit < 0) appended
	// to dst, and every match counted by placement class of the routing
	// table (Table.Class), Table.Classes entries long.
	HandleQuery(ctx context.Context, dst []string, q string, limit int) (ids []string, byClass []int, err error)
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
	pushes chan resultPush // results on their way to this peer (pushLoop)

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
	slot    []int            // index into table.Nodes() → 0 for self, 1 + place in order for a peer
	met     *Metrics
	log     *slog.Logger
	events  *events.Log // nil: no journal

	hintMu sync.Mutex
	hints  map[string]map[string]struct{} // peer ID -> trace IDs owed

	// run ends when the node stops (Shutdown or Kill): the background
	// loops select on it and the result senders' calls are cut by it.
	run      context.Context
	stop     context.CancelFunc
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
		slot:    make([]int, len(table.Nodes())),
	}
	c.run, c.stop = context.WithCancel(context.Background())
	for i, n := range table.Nodes() {
		if n.ID == self.ID {
			continue
		}
		p := &peer{node: n, client: NewClient(n.Addr, cfg.RPCTimeout), pushes: make(chan resultPush, pushQueueLen)}
		p.up.Store(true) // optimistic: the first probe or call corrects
		c.peers[n.ID] = p
		c.order = append(c.order, n.ID)
		c.slot[i] = len(c.order)
	}
	c.met.PeersUp.Set(float64(len(c.peers)))
	hello, _ := json.Marshal(pingInfo{Node: self.ID, Version: table.Version()})
	c.srv = NewServer(ServerOptions{Log: cfg.Log, OnTrace: cfg.OnTrace, Hello: hello})
	c.registerHandlers()
	c.wg.Add(2 + len(c.peers))
	go c.probeLoop()
	go c.hintLoop()
	for _, p := range c.peers {
		go c.pushLoop(p)
	}
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
	c.stopOnce.Do(c.stop)
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
	c.stopOnce.Do(c.stop)
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
// does not. The request body is body followed by the slices of tail,
// which are sent as they are (Client.call).
func (c *Cluster) callPeer(ctx context.Context, p *peer, op byte, opName, reqID string, body []byte, tail ...[]byte) ([]byte, error) {
	start := time.Now()
	resp, err := p.client.call(ctx, op, opName, reqID, body, tail)
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

// sendItems performs one bulk-data RPC: ids and blobs (and, when not
// nil, placed) travel as the blob list of itemParts, the blobs from the
// slices they are in.
func (c *Cluster) sendItems(ctx context.Context, p *peer, op byte, opName, reqID string, ids []string, blobs [][]byte, placed [][]string) ([]byte, error) {
	if len(ids) != len(blobs) || (placed != nil && len(placed) != len(blobs)) {
		return nil, fmt.Errorf("ring: %d ids and %d placed lists for %d blobs", len(ids), len(placed), len(blobs))
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
	defer cancel()
	return c.callPeer(ctx, p, op, opName, reqID, nil, itemParts(ids, blobs, placed)...)
}

// ForwardIngest routes a group of trace blobs — each paired with its
// content address — to their owner node and returns the owner's
// per-item statuses, in blob order. The owner places every follower
// copy itself.
func (c *Cluster) ForwardIngest(ctx context.Context, reqID, peerID string, ids []string, blobs [][]byte) ([]ItemStatus, error) {
	return c.ForwardPlaced(ctx, reqID, peerID, ids, blobs, nil)
}

// ForwardPlaced is ForwardIngest from a sender that copies blobs[i] to
// the followers placed[i] itself (OpIngestPlaced): the owner places the
// others. A nil placed sends OpIngest, and so does a resend to a peer
// that answers OpIngestPlaced as an unknown op.
func (c *Cluster) ForwardPlaced(ctx context.Context, reqID, peerID string, ids []string, blobs [][]byte, placed [][]string) ([]ItemStatus, error) {
	p, err := c.peerByID(peerID)
	if err != nil {
		return nil, err
	}
	op := byte(OpIngest)
	if placed != nil {
		op = OpIngestPlaced
	}
	resp, err := c.sendItems(ctx, p, op, "ingest", reqID, ids, blobs, placed)
	var re *RemoteError
	if op == OpIngestPlaced && errors.As(err, &re) && strings.HasPrefix(re.Msg, unknownOp) {
		// A node that predates OpIngestPlaced, mid rolling upgrade: as
		// OpIngest the share is placed in full by the owner, the followers
		// already copied to included.
		resp, err = c.sendItems(ctx, p, OpIngest, "ingest", reqID, ids, blobs, nil)
	}
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
// failure degrades an ack or was best-effort anyway). Only a node that
// stores the blobs calls it: a hint is replayed from the local store.
func (c *Cluster) Replicate(ctx context.Context, reqID, peerID string, ids []string, blobs [][]byte) error {
	if _, err := c.peerByID(peerID); err != nil {
		return err
	}
	if err := c.Copy(ctx, reqID, peerID, ids, blobs); err != nil {
		c.Hint(peerID, ids)
		return err
	}
	return nil
}

// Copy is Replicate without the hint: the call of a node that places
// copies of blobs it may not store itself, and hands a copy that failed
// to a node that does.
func (c *Cluster) Copy(ctx context.Context, reqID, peerID string, ids []string, blobs [][]byte) error {
	p, err := c.peerByID(peerID)
	if err != nil {
		return err
	}
	if _, err := c.sendItems(ctx, p, OpReplicate, "replicate", reqID, ids, blobs, nil); err != nil {
		return err
	}
	c.met.ReplicatedTraces.Add(int64(len(blobs)))
	return nil
}

// itemParts lays parallel id/blob slices out as the OpIngest and
// OpReplicate body — an alternating blob list, [len|id][len|blob] per
// trace — without touching a blob: each trace is its two length prefixes
// around its id, carved from one small array, then the caller's blob
// slice itself. Shipping the content address next to each blob lets
// every downstream node (owner, followers) persist without re-hashing;
// only the entry node pays the SHA-256 pass. With placed, the
// OpIngestPlaced body, each trace has a third blob after its blob: the
// followers it was placed on, itself a blob list of node IDs.
func itemParts(ids []string, blobs [][]byte, placed [][]string) [][]byte {
	n, per := 0, 2
	for i, id := range ids {
		n += 8 + len(id)
		if placed != nil {
			n += 4
			for _, f := range placed[i] {
				n += 4 + len(f)
			}
		}
	}
	if placed != nil {
		per = 3
	}
	heads, parts := make([]byte, 0, n), make([][]byte, 0, per*len(blobs))
	for i, b := range blobs {
		at := len(heads)
		heads = binary.LittleEndian.AppendUint32(heads, uint32(len(ids[i])))
		heads = append(heads, ids[i]...)
		heads = binary.LittleEndian.AppendUint32(heads, uint32(len(b)))
		parts = append(parts, heads[at:], b)
		if placed != nil {
			at = len(heads)
			heads = binary.LittleEndian.AppendUint32(heads, 0)
			for _, f := range placed[i] {
				heads = AppendBlob(heads, []byte(f))
			}
			binary.LittleEndian.PutUint32(heads[at:], uint32(len(heads)-at-4))
			parts = append(parts, heads[at:])
		}
	}
	return parts
}

// splitItems decodes a body laid out by itemParts, with placed lists
// when withPlaced. The blob slices alias body; the ids and placed
// followers are copied out.
func splitItems(body []byte, withPlaced bool) (ids []string, blobs [][]byte, placed [][]string, err error) {
	per := 2
	if withPlaced {
		per = 3
	}
	parts, err := SplitBlobs(body, per*maxTraceItems)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(parts)%per != 0 {
		return nil, nil, nil, fmt.Errorf("ring: %d blobs is not %d per trace", len(parts), per)
	}
	ids = make([]string, len(parts)/per)
	blobs = make([][]byte, len(parts)/per)
	if withPlaced {
		placed = make([][]string, len(parts)/per)
	}
	for i := range ids {
		ids[i] = string(parts[per*i])
		blobs[i] = parts[per*i+1]
		if !withPlaced {
			continue
		}
		fs, err := SplitBlobs(parts[per*i+2], maxPlacedFollowers)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("ring: placed list of trace %d: %w", i, err)
		}
		placed[i] = make([]string, len(fs))
		for j, f := range fs {
			placed[i][j] = string(f)
		}
	}
	return ids, blobs, placed, nil
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

// resultPush is one result on its way to one peer.
type resultPush struct {
	reqID, id, fp string
	record        []byte
}

const (
	// maxPushBatch is the most results one OpResultPush frame carries.
	maxPushBatch = 64
	// pushQueueLen is how many results may wait for one peer's sender:
	// what a node's workers finish while a few frames are in flight, and
	// no more — a peer that slow is better served by its own repair loop
	// than by a backlog held here.
	pushQueueLen = 4 * maxPushBatch
)

// PushResult ships an owner-computed categorization result to the
// trace's other replicas, asynchronously and best-effort: it queues the
// result for each peer's sender and returns. A peer that is down, or
// whose queue is full, is skipped — a replica that misses a push repairs
// itself after RepairAfter. result is read until it has been sent.
func (c *Cluster) PushResult(reqID, id, fp string, result []byte, peerIDs []string) {
	for _, pid := range peerIDs {
		p, perr := c.peerByID(pid)
		if perr != nil || !p.up.Load() {
			continue
		}
		select {
		case p.pushes <- resultPush{reqID: reqID, id: id, fp: fp, record: result}:
		default:
			if c.log != nil {
				c.log.Debug("ring: result push queue full (replica will self-repair)", "peer", pid, "id", id)
			}
		}
	}
}

// pushLoop is one peer's result sender: whatever is queued when it
// looks — one result on a quiet node, a worker pool's worth under load —
// goes out as one OpResultPush frame on one pooled connection, where a
// goroutine and a call per result kept dialling past the client's idle
// pool. It ends with the node; results still queued then are dropped
// like any lost push.
func (c *Cluster) pushLoop(p *peer) {
	defer c.wg.Done()
	var (
		batch []resultPush
		body  []byte
	)
	for {
		select {
		case <-c.run.Done():
			return
		case first := <-p.pushes:
			batch = append(batch[:0], first)
		}
		for more := true; more && len(batch) < maxPushBatch; {
			select {
			case next := <-p.pushes:
				batch = append(batch, next)
			default:
				more = false
			}
		}
		body = body[:0]
		for _, r := range batch {
			body = appendResultPush(body, r.id, r.fp, r.record)
		}
		ctx, cancel := context.WithTimeout(c.run, c.cfg.RPCTimeout)
		_, err := c.callPeer(ctx, p, OpResultPush, "resultpush", batch[0].reqID, body)
		cancel()
		if err == nil {
			c.met.ResultPushes.Add(int64(len(batch)))
		} else if c.log != nil {
			c.log.Debug("ring: result push failed (replicas will self-repair)",
				"peer", p.node.ID, "results", len(batch), "err", err)
		}
		clear(batch) // the records are the store's; do not hold them between frames
	}
}

// The OpResultPush body is a blob list of three per result: trace ID,
// fingerprint, result record — the record's bytes travel as they are
// stored — for as many results as the sender had queued. Nodes that
// predate the store's served result form send one result as a JSON
// object instead, with the compact result document embedded;
// parseResultPush still reads it (the store converts the document). A
// blob list starts with the ID's length, never with '{'.
func appendResultPush(dst []byte, id, fp string, result []byte) []byte {
	dst = AppendBlob(dst, []byte(id))
	dst = AppendBlob(dst, []byte(fp))
	return AppendBlob(dst, result)
}

// parseResultPush decodes an OpResultPush body of either form; the
// records alias body.
func parseResultPush(body []byte) ([]resultPush, error) {
	if len(body) > 0 && body[0] == '{' {
		var push struct {
			ID          string          `json:"id"`
			Fingerprint string          `json:"fp"`
			Result      json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &push); err != nil {
			return nil, err
		}
		return []resultPush{{id: push.ID, fp: push.Fingerprint, record: push.Result}}, nil
	}
	parts, err := SplitBlobs(body, 3*maxPushBatch)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 || len(parts)%3 != 0 {
		return nil, fmt.Errorf("ring: result push holds %d blobs, want id, fingerprint and record per result", len(parts))
	}
	out := make([]resultPush, len(parts)/3)
	for i := range out {
		out[i] = resultPush{id: string(parts[3*i]), fp: string(parts[3*i+1]), record: parts[3*i+2]}
	}
	return out, nil
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
	// One handler for both ingest ops: OpIngest arrives with nothing
	// placed, so a node that predates OpIngestPlaced still forwards.
	ingest := func(withPlaced bool) Handler {
		return func(ctx context.Context, f *Frame) ([]byte, error) {
			ids, blobs, placed, err := splitItems(f.Body, withPlaced)
			if err != nil {
				return nil, err
			}
			items := c.backend.HandleIngest(ctx, f.RequestID, ids, blobs, placed)
			return json.Marshal(struct {
				Items []ItemStatus `json:"items"`
			}{Items: items})
		}
	}
	c.srv.Handle(OpIngest, "ingest", ingest(false))
	c.srv.Handle(OpIngestPlaced, "ingest", ingest(true))
	c.srv.Handle(OpReplicate, "replicate", func(ctx context.Context, f *Frame) ([]byte, error) {
		ids, blobs, _, err := splitItems(f.Body, false)
		if err != nil {
			return nil, err
		}
		return nil, c.backend.HandleReplicate(ctx, f.RequestID, ids, blobs)
	})
	c.srv.Handle(OpResultPush, "resultpush", func(ctx context.Context, f *Frame) ([]byte, error) {
		pushes, err := parseResultPush(f.Body)
		if err != nil {
			return nil, err
		}
		// Each result stands alone: one the store refuses does not keep
		// the rest of the frame from their replicas.
		var failed error
		for _, r := range pushes {
			if err := c.backend.HandleResultPush(ctx, r.id, r.fp, r.record); err != nil && failed == nil {
				failed = err
			}
		}
		return nil, failed
	})
	c.srv.Handle(OpQuery, "query", c.handleQuery)
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
		case <-c.run.Done():
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
		case <-c.run.Done():
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
