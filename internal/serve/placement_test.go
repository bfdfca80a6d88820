package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// stores counts the servers holding the blob of id.
func stores(t *testing.T, id store.TraceID, srvs ...*Server) int {
	t.Helper()
	n := 0
	for _, s := range srvs {
		_, ok, err := s.st.GetTraceBytes(id)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			n++
		}
	}
	return n
}

// placedOn returns n blobs, from seed on, whose replica set is exactly
// replicas, in order.
func placedOn(t *testing.T, table *ring.Table, seed, n int, replicas ...string) [][]byte {
	t.Helper()
	var out [][]byte
	for ; len(out) < n; seed++ {
		if seed > 100_000 {
			t.Fatalf("no %d traces placed on %v", n, replicas)
		}
		blob := encodeJob(t, testJob(seed))
		var got []string
		for _, nd := range table.Replicas(string(store.HashBytes(blob))) {
			got = append(got, nd.ID)
		}
		if fmt.Sprint(got) == fmt.Sprint(replicas) {
			out = append(out, blob)
		}
	}
	return out
}

// TestAckWaitsOnEveryCopyPlacedByTheEntry sends a 16-trace batch through
// each node of a three-node ring (RF 2, one follower ack): when the ack
// returns every trace is in two stores, and the copies were all made by
// the entry — an owner ships no follower copy on the ack path.
func TestAckWaitsOnEveryCopyPlacedByTheEntry(t *testing.T) {
	tc := startTestCluster(t, 3)
	var srvs []*Server
	for _, nd := range tc.nodes {
		srvs = append(srvs, nd.srv)
	}
	table := srvs[0].Cluster().Table()
	replicated := func() []int64 {
		var out []int64
		for _, s := range srvs {
			out = append(out, s.Cluster().Metrics().ReplicatedTraces.Value())
		}
		return out
	}
	for e, entry := range tc.nodes {
		var blobs [][]byte
		for seed := 0; seed < 16; seed++ {
			blobs = append(blobs, encodeJob(t, testJob(500+100*e+seed)))
		}
		before := replicated()
		resp, ir := postBatch(t, entry.http.URL, BatchContentType, batchBody(blobs...))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch through %s: status %d", entry.id, resp.StatusCode)
		}
		remoteCopies := int64(0)
		for _, id := range acked(t, ir) {
			if n := stores(t, id, srvs...); n != 2 {
				t.Errorf("batch through %s: trace %s is in %d stores at the ack, want 2", entry.id, id, n)
			}
			if table.Replicas(string(id))[1].ID != entry.id {
				remoteCopies++
			}
		}
		after := replicated()
		for i := range srvs {
			want := before[i]
			if i == e {
				want += remoteCopies
			}
			if after[i] != want {
				t.Errorf("batch through %s: %s shipped %d follower copies, want %d",
					entry.id, tc.nodes[i].id, after[i]-before[i], want-before[i])
			}
		}
	}
}

// TestOpIngestPlacesEveryFollower: a node that predates OpIngestPlaced
// forwards with OpIngest, placing nothing, and the owner places the
// follower copy itself before it answers.
func TestOpIngestPlacesEveryFollower(t *testing.T) {
	tc := startTestCluster(t, 3)
	srvs := []*Server{tc.nodes[0].srv, tc.nodes[1].srv, tc.nodes[2].srv}
	blobs := placedOn(t, srvs[0].Cluster().Table(), 900, 3, "node-1", "node-2")
	ids := make([]string, len(blobs))
	for i, b := range blobs {
		ids[i] = string(store.HashBytes(b))
	}
	sts, err := srvs[0].Cluster().ForwardIngest(context.Background(), "upgrade", "node-1", ids, blobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range sts {
		if st.Status != StatusAccepted {
			t.Errorf("trace %d: %+v", i, st)
		}
		if n := stores(t, store.TraceID(ids[i]), srvs[1], srvs[2]); n != 2 {
			t.Errorf("trace %d is on %d of its replicas when the owner answers, want 2", i, n)
		}
	}
	if n := srvs[1].Cluster().Metrics().ReplicatedTraces.Value(); n != int64(len(blobs)) {
		t.Errorf("the owner shipped %d follower copies, want %d", n, len(blobs))
	}
}

// TestFollowerKilledBeforeItsCopy kills a follower after the entry has
// found it up and before the entry copies to it. The copy fails, so the
// owner — the entry itself, or the peer it forwarded to — places it: it
// stores the blob, hints the copy, and counts the ack degraded. Once the
// follower is back the hints replay and every trace is on both replicas.
// When the peer owner dies after it answered, so that it cannot take the
// failed copy, the entry stores the blob and holds the hint itself.
func TestFollowerKilledBeforeItsCopy(t *testing.T) {
	t.Run("owner places it", followerKilledOwnerPlaces)
	t.Run("owner killed after it answers", followerKilledOwnerGone)
}

func followerKilledOwnerPlaces(t *testing.T) {
	// No probe runs before the batch: the entry, and the peer owner, still
	// believe the killed follower up when they try it.
	qr := startQueryRing(t, 3, 2, 3*time.Second)
	table := qr.nodes[0].srv.Cluster().Table()
	remote := placedOn(t, table, 1200, 3, "node-1", "node-2")
	local := placedOn(t, table, 1200, 3, "node-0", "node-2")
	qr.kill(2)

	req, err := http.NewRequest("POST", "/v1/traces:batch", batchBody(append(remote, local...)...))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", BatchContentType)
	rec := httptest.NewRecorder()
	qr.nodes[0].srv.Handler().ServeHTTP(rec, req)
	var ir ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil || rec.Code != http.StatusAccepted {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
	}
	ids := acked(t, ir)
	for i, id := range ids {
		owner := qr.nodes[0].srv
		if i < len(remote) {
			owner = qr.nodes[1].srv
		}
		if stores(t, id, owner) != 1 {
			t.Errorf("trace %s acked before its owner stored it", id)
		}
	}
	for i, want := range []int64{int64(len(local)), int64(len(remote))} {
		m := qr.nodes[i].srv.Cluster().Metrics()
		if got := m.DegradedAcks.Value(); got != want {
			t.Errorf("%s counted %d degraded acks, want %d", qr.nodes[i].id, got, want)
		}
		if got := m.HintsQueued.Value(); got != want {
			t.Errorf("%s hinted %d copies, want %d: a hint is held by the owner, which stores the blob", qr.nodes[i].id, got, want)
		}
	}

	qr.restart(2)
	all := []*Server{qr.nodes[0].srv, qr.nodes[1].srv, qr.nodes[2].srv}
	waitFor(t, "the hinted copies on the restarted follower", func() bool {
		for _, id := range ids {
			if stores(t, id, all[2]) != 1 {
				return false
			}
		}
		return true
	})
	for _, id := range ids {
		if n := stores(t, id, all...); n != 2 {
			t.Errorf("trace %s is in %d stores after the replay, want 2", id, n)
		}
	}
}

func followerKilledOwnerGone(t *testing.T) {
	qr := startQueryRing(t, 3, 2, 3*time.Second)
	table := qr.nodes[0].srv.Cluster().Table()
	remote := placedOn(t, table, 1300, 3, "node-1", "node-2")
	entry, owner := qr.nodes[0].srv, qr.nodes[1].srv
	// node-2's address answers every copy with an error, and the first
	// one only once node-1 has answered the entry's forward — then node-1
	// dies, so the entry's retry of the copy through it fails.
	qr.kill(2)
	fake := ring.NewServer(ring.ServerOptions{})
	var once sync.Once
	fake.Handle(ring.OpReplicate, "replicate", func(context.Context, *ring.Frame) ([]byte, error) {
		once.Do(func() {
			waitFor(t, "node-1's answer to the forward", func() bool {
				return entry.Cluster().Metrics().ForwardedTraces.Value() == int64(len(remote))
			})
			qr.kill(1)
		})
		return nil, errors.New("disk full")
	})
	go fake.Serve(qr.rebind(2)) //nolint:errcheck

	req, err := http.NewRequest("POST", "/v1/traces:batch", batchBody(remote...))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", BatchContentType)
	rec := httptest.NewRecorder()
	entry.Handler().ServeHTTP(rec, req)
	var ir ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil || rec.Code != http.StatusAccepted {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
	}
	ids := acked(t, ir)
	for _, id := range ids {
		if stores(t, id, owner) != 1 || stores(t, id, entry) != 1 {
			t.Errorf("trace %s acked without the owner's copy and the entry's held one", id)
		}
	}
	m := entry.Cluster().Metrics()
	if got, want := m.DegradedAcks.Value(), int64(len(remote)); got != want {
		t.Errorf("entry counted %d degraded acks, want %d", got, want)
	}
	if got, want := m.HintsQueued.Value(), int64(len(remote)); got != want {
		t.Errorf("entry hinted %d copies, want %d: it holds the blobs the owner could not place", got, want)
	}

	fake.Kill()
	qr.restart(2)
	follower := qr.nodes[2].srv
	waitFor(t, "the entry's hinted copies on the restarted follower", func() bool {
		for _, id := range ids {
			if stores(t, id, follower) != 1 {
				return false
			}
		}
		return true
	})
	for _, id := range ids {
		if n := stores(t, id, owner, follower); n != 2 {
			t.Errorf("trace %s is on %d replicas after the replay, want 2", id, n)
		}
	}
}

// TestDebugRequestMergesRingTraces: one client trace makes a batch
// request to each of two ring nodes, so each node holds its own request's
// trace and the RPC traces of the other's. GET /debug/requests/{id} on a
// node merges every one of them into one tree: every span ID once, every
// local parent in the tree, and each RPC root parented by the rpc.* span
// of the node that called it.
func TestDebugRequestMergesRingTraces(t *testing.T) {
	tc := startTestCluster(t, 3)
	tid := reqtrace.TraceID{0x4d, 0x6f, 0x73, 0x61, 0x69, 0x63, 1}
	tp := reqtrace.FormatTraceparent(tid, reqtrace.SpanID{9})
	for i, nd := range tc.nodes[:2] {
		var blobs [][]byte
		for seed := 0; seed < 8; seed++ {
			blobs = append(blobs, encodeJob(t, testJob(1500+10*i+seed)))
		}
		req, err := http.NewRequest("POST", nd.http.URL+"/v1/traces:batch", batchBody(blobs...))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", BatchContentType)
		req.Header.Set(reqtrace.TraceparentHeader, tp)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch through %s: status %d", nd.id, resp.StatusCode)
		}
	}
	// The ack came after every RPC of both requests returned; the traces
	// finalize as the last queued categorization of each is done.
	waitFor(t, "idle workers", func() bool {
		for _, nd := range tc.nodes {
			if nd.srv.PendingCount() > 0 {
				return false
			}
		}
		return true
	})
	details := make([]reqtrace.Detail, 2)
	for i, nd := range tc.nodes[:2] {
		resp, body := getBody(t, nd.http.URL+"/debug/requests/"+tid.String())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", nd.id, resp.StatusCode, body)
		}
		if err := json.Unmarshal([]byte(body), &details[i]); err != nil {
			t.Fatal(err)
		}
		retained := 0
		for _, s := range nd.srv.Flight().Recent(0) {
			if s.Trace == tid.String() {
				retained++
			}
		}
		if retained < 2 || details[i].Traces != retained || details[i].Spans != len(details[i].SpanTree) {
			t.Fatalf("%s: merged %d traces of %d retained, %d spans listed as %d", nd.id, details[i].Traces, retained, len(details[i].SpanTree), details[i].Spans)
		}
	}
	names := map[string]string{} // span ID → name, on both nodes
	for i, d := range details {
		local := map[string]bool{}
		for _, sp := range d.SpanTree {
			if local[sp.ID] {
				t.Fatalf("%s: span ID %s twice in the merged tree", tc.nodes[i].id, sp.ID)
			}
			local[sp.ID] = true
			names[sp.ID] = sp.Name
		}
		for _, sp := range d.SpanTree {
			isRoot := sp.Name == "POST /v1/traces:batch" || strings.HasPrefix(sp.Name, "RPC ")
			if !isRoot && !local[sp.Parent] {
				t.Errorf("%s: span %s's parent %s is not in the tree", tc.nodes[i].id, sp.Name, sp.Parent)
			}
		}
	}
	rpcRoots := 0
	for _, d := range details {
		for _, sp := range d.SpanTree {
			if !strings.HasPrefix(sp.Name, "RPC ") {
				continue
			}
			rpcRoots++
			if p := names[sp.Parent]; !strings.HasPrefix(p, "rpc.") {
				t.Errorf("%s has parent %s (%q), want the caller's rpc span", sp.Name, sp.Parent, p)
			}
		}
	}
	if rpcRoots == 0 {
		t.Fatal("no RPC root in either node's tree")
	}
}
