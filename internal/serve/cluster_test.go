package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// testCluster is an in-process multi-node cluster: real TCP between
// nodes, real HTTP in front of each.
type testCluster struct {
	nodes []*clusterTestNode
}

type clusterTestNode struct {
	id   string
	srv  *Server
	http *httptest.Server
	rpc  net.Listener
}

// startTestCluster boots n serve nodes wired into one ring, with
// failure-detection and repair timers tightened for test speed.
func startTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	listeners := make([]net.Listener, n)
	members := make([]ring.Node, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		members[i] = ring.Node{ID: fmt.Sprintf("node-%d", i), Addr: l.Addr().String()}
	}
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rcfg := ring.Config{
			Self:          members[i].ID,
			Nodes:         members,
			Replication:   2,
			ReplicaAck:    1,
			ProbeInterval: 50 * time.Millisecond,
			RPCTimeout:    2 * time.Second,
			HedgeAfter:    20 * time.Millisecond,
			HintRetry:     100 * time.Millisecond,
			RepairAfter:   300 * time.Millisecond,
		}
		srv, err := New(Config{Store: st, Workers: 2, QueueDepth: 256, Cluster: &rcfg})
		if err != nil {
			t.Fatal(err)
		}
		node := &clusterTestNode{id: members[i].ID, srv: srv, rpc: listeners[i]}
		go srv.ServeCluster(listeners[i]) //nolint:errcheck
		node.http = httptest.NewServer(srv.Handler())
		tc.nodes = append(tc.nodes, node)
		t.Cleanup(func() { st.Close() })
	}
	t.Cleanup(func() {
		for _, nd := range tc.nodes {
			nd.http.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			nd.srv.Shutdown(ctx)
			cancel()
		}
	})
	return tc
}

// acked collects the IDs a batch response acknowledged (any status that
// promises durability).
func acked(t *testing.T, ir ingestResponse) []store.TraceID {
	t.Helper()
	var out []store.TraceID
	for _, it := range ir.Results {
		switch it.Status {
		case StatusAccepted, StatusPending, StatusCached:
			if it.ID == "" {
				t.Fatalf("acked item without ID: %+v", it)
			}
			out = append(out, it.ID)
		default:
			t.Fatalf("batch item not acked: %+v", it)
		}
	}
	return out
}

// waitQueryAll polls node's /v1/query until every want ID appears (all
// test traces are write_on_end) or the deadline passes.
func waitQueryAll(t *testing.T, node *clusterTestNode, want []store.TraceID, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	var missing []store.TraceID
	for time.Now().Before(deadline) {
		resp, body := getBody(t, node.http.URL+"/v1/query?q=write_on_end")
		if resp.StatusCode != 200 {
			t.Fatalf("query on %s: status %d: %s", node.id, resp.StatusCode, body)
		}
		var qr struct {
			IDs []store.TraceID `json:"ids"`
		}
		if err := json.Unmarshal([]byte(body), &qr); err != nil {
			t.Fatal(err)
		}
		have := make(map[store.TraceID]bool, len(qr.IDs))
		for _, id := range qr.IDs {
			have[id] = true
		}
		missing = missing[:0]
		for _, id := range want {
			if !have[id] {
				missing = append(missing, id)
			}
		}
		if len(missing) == 0 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("query on %s: %d/%d acked traces missing after %v: %v",
		node.id, len(missing), len(want), within, missing)
}

func TestClusterIngestQueryStats(t *testing.T) {
	tc := startTestCluster(t, 3)

	// Batch-ingest through one node; traces scatter to their ring owners.
	var blobs [][]byte
	for seed := 0; seed < 12; seed++ {
		blobs = append(blobs, encodeJob(t, testJob(seed)))
	}
	resp, ir := postBatch(t, tc.nodes[0].http.URL, BatchContentType, batchBody(blobs...))
	if resp.StatusCode != 202 {
		t.Fatalf("batch ingest: status %d", resp.StatusCode)
	}
	ids := acked(t, ir)
	if len(ids) != len(blobs) {
		t.Fatalf("acked %d of %d", len(ids), len(blobs))
	}

	// Every node answers the full result set via scatter-gather.
	for _, nd := range tc.nodes {
		waitQueryAll(t, nd, ids, 15*time.Second)
	}

	// Result reads route cross-shard (hedged when needed).
	for _, id := range ids {
		body := waitResult(t, tc.nodes[1].http.URL, id)
		if body == "" {
			t.Fatalf("empty result for %s", id)
		}
	}

	// The routing table is identical everywhere and reports 3 members.
	var version string
	for _, nd := range tc.nodes {
		resp, body := getBody(t, nd.http.URL+"/v1/cluster")
		if resp.StatusCode != 200 {
			t.Fatalf("/v1/cluster on %s: %d", nd.id, resp.StatusCode)
		}
		var info ring.Info
		if err := json.Unmarshal([]byte(body), &info); err != nil {
			t.Fatal(err)
		}
		if len(info.Nodes) != 3 || info.Self != nd.id {
			t.Fatalf("/v1/cluster on %s: %+v", nd.id, info)
		}
		if version == "" {
			version = info.Version
		} else if info.Version != version {
			t.Fatalf("table version disagrees: %s vs %s", info.Version, version)
		}
	}

	// Clustered stats carry one entry per node, all up.
	resp, body := getBody(t, tc.nodes[2].http.URL+"/v1/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/stats: %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 3 {
		t.Fatalf("stats from %d nodes, want 3: %s", len(st.Nodes), body)
	}
	total := int64(0)
	for _, ns := range st.Nodes {
		if !ns.Up {
			t.Fatalf("node %s reported down: %s", ns.Node, body)
		}
		total += ns.Traces
	}
	// RF=2: every trace is stored exactly twice across the cluster.
	if total != int64(2*len(ids)) {
		t.Fatalf("cluster holds %d trace copies, want %d", total, 2*len(ids))
	}
}

// TestClusterKillOwnerMidIngest is the failure drill the replication
// design is for: batches land while one node is killed outright;
// every trace the cluster ACKED must remain queryable from the
// survivors — served by replica copies, categorized by the repair path
// when the owner died holding the only result.
func TestClusterKillOwnerMidIngest(t *testing.T) {
	tc := startTestCluster(t, 3)
	victim := tc.nodes[2]
	entry := tc.nodes[0]

	var ids []store.TraceID
	seed := 0
	batch := func(n int) {
		var blobs [][]byte
		for ; n > 0; n-- {
			blobs = append(blobs, encodeJob(t, testJob(seed)))
			seed++
		}
		resp, ir := postBatch(t, entry.http.URL, BatchContentType, batchBody(blobs...))
		if resp.StatusCode != 202 {
			t.Fatalf("batch ingest: status %d", resp.StatusCode)
		}
		got := acked(t, ir)
		if len(got) != len(blobs) {
			t.Fatalf("acked %d of %d", len(got), len(blobs))
		}
		ids = append(ids, got...)
	}

	// Healthy ingest first: the victim owns (or replicates) a share of
	// these, including some results only it has computed yet.
	batch(10)

	// SIGKILL stand-in: listener and every connection die mid-flight.
	victim.srv.Kill()
	victim.http.Close()

	// Keep ingesting while the survivors discover the death. Routing
	// retries inside the request, so even batches racing the failure
	// detector must come back fully acked.
	for i := 0; i < 4; i++ {
		batch(5)
		time.Sleep(30 * time.Millisecond)
	}

	// Every acked trace — from before and after the kill — must be
	// queryable from both survivors. RF=2 guarantees a surviving copy of
	// pre-kill traces; the repair loop re-categorizes replicas whose
	// owner died before pushing the result.
	for _, nd := range tc.nodes[:2] {
		waitQueryAll(t, nd, ids, 30*time.Second)
	}

	// Partial-failure visibility: the scatter-gather stats response
	// reports the dead member as down rather than omitting it.
	resp, body := getBody(t, entry.http.URL+"/v1/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/stats: %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	down := 0
	for _, ns := range st.Nodes {
		if !ns.Up {
			down++
			if ns.Node != victim.id {
				t.Fatalf("wrong node reported down: %s", body)
			}
		}
	}
	if down != 1 {
		t.Fatalf("stats reports %d nodes down, want 1: %s", down, body)
	}

	// And results stay readable from a survivor (hedged reads skip the
	// corpse).
	for _, id := range ids {
		waitResult(t, tc.nodes[1].http.URL, id)
	}
}

// TestClusterNodeRejectsRetiredCategorizeOp: a peer that still speaks
// the retired remote-categorization opcode (16) gets the unknown-op
// application error from a serve node, and the connection stays usable
// — the frame was read whole, never misread as another op.
func TestClusterNodeRejectsRetiredCategorizeOp(t *testing.T) {
	tc := startTestCluster(t, 2)
	c := ring.NewClient(tc.nodes[0].rpc.Addr().String(), 2*time.Second)
	defer c.Close()
	_, err := c.Call(context.Background(), 16, "categorize", "retired", []byte("a trace and a config"))
	var re *ring.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("opcode 16 answered with %T %v, want a RemoteError", err, err)
	}
	if !strings.Contains(re.Msg, "unknown op") {
		t.Fatalf("opcode 16 answered %q, want the unknown-op error", re.Msg)
	}
	if _, err := c.Call(context.Background(), ring.OpPing, "ping", "", nil); err != nil {
		t.Fatalf("ping after the retired op: %v", err)
	}
}
