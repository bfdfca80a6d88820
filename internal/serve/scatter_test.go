package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/index"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// variedExec stands in for the detection chain on the scatter-query
// rings: every testJob categorizes alike, so it deals each job a set
// from its JobID — the same one on whichever node ends up categorizing
// it — with one sparse category, so that its negation is heavy.
type variedExec struct{}

func variedSet(jobID uint64) category.Set {
	x := jobID * 0x9e3779b97f4a7c15
	x ^= x >> 29
	set := category.NewSet()
	for i, c := range []struct {
		cat   category.Category
		oneIn uint64
	}{
		{cat: "write_on_end", oneIn: 2},
		{cat: "read_on_start", oneIn: 2},
		{cat: "metadata_high_spike", oneIn: 3},
		{cat: "read_steady", oneIn: 4},
		{cat: "write_periodic", oneIn: 8},
	} {
		if (x>>(8*i))%c.oneIn == 0 {
			set.Add(c.cat)
		}
	}
	return set
}

func (variedExec) Categorize(_ context.Context, j *darshan.Job, _ core.Config) (*core.Result, error) {
	set := variedSet(j.JobID)
	return &core.Result{JobID: j.JobID, App: j.AppName(), User: j.User, Categories: set, Labels: set.Strings()}, nil
}

func (variedExec) Concurrency() int { return 1 }

func (e variedExec) CategorizeExplained(ctx context.Context, j *darshan.Job, cfg core.Config, _ explain.Options) (*core.Result, *explain.Explanation, error) {
	res, err := e.Categorize(ctx, j, cfg)
	return res, nil, err
}

// queryRing is an in-process ring whose nodes can be killed and brought
// back over the store and the addresses they had.
type queryRing struct {
	t       *testing.T
	members []ring.Node
	rf      int
	probe   time.Duration
	nodes   []*queryRingNode
}

type queryRingNode struct {
	id     string
	st     *store.Store
	srv    *Server
	flight *reqtrace.Recorder
	down   bool
}

// startQueryRing boots n nodes at replication rf that probe each other
// every probe — short where a test kills nodes, long where it counts
// what a query allocates.
func startQueryRing(t *testing.T, n, rf int, probe time.Duration) *queryRing {
	t.Helper()
	qr := &queryRing{t: t, rf: rf, probe: probe, members: make([]ring.Node, n)}
	listeners := make([]net.Listener, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		qr.members[i] = ring.Node{ID: fmt.Sprintf("node-%d", i), Addr: l.Addr().String()}
	}
	for i := range listeners {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		qr.nodes = append(qr.nodes, &queryRingNode{id: qr.members[i].ID, st: st})
		qr.boot(i, listeners[i])
	}
	t.Cleanup(func() {
		for _, nd := range qr.nodes {
			if !nd.down {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				nd.srv.Shutdown(ctx)
				cancel()
			}
		}
	})
	return qr
}

// boot starts node i over its store, serving the ring on l.
func (qr *queryRing) boot(i int, l net.Listener) {
	qr.t.Helper()
	nd := qr.nodes[i]
	nd.flight = reqtrace.NewRecorder(reqtrace.RecorderConfig{Capacity: 64})
	srv, err := New(Config{
		Store: nd.st, Workers: 2, QueueDepth: 256, Executor: variedExec{}, Flight: nd.flight,
		Cluster: &ring.Config{
			Self: nd.id, Nodes: qr.members, Replication: qr.rf, ReplicaAck: min(qr.rf, len(qr.members)) - 1,
			ProbeInterval: qr.probe, RPCTimeout: 2 * time.Second,
			HintRetry: 50 * time.Millisecond, RepairAfter: 150 * time.Millisecond,
		},
	})
	if err != nil {
		qr.t.Fatal(err)
	}
	nd.srv, nd.down = srv, false
	go srv.ServeCluster(l) //nolint:errcheck
}

func (qr *queryRing) kill(i int) {
	qr.nodes[i].srv.Kill()
	qr.nodes[i].down = true
}

func (qr *queryRing) restart(i int) {
	qr.t.Helper()
	qr.boot(i, qr.rebind(i))
}

// rebind listens again on node i's address, once its killed server has
// let go of it.
func (qr *queryRing) rebind(i int) net.Listener {
	qr.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		l, err := net.Listen("tcp", qr.members[i].Addr)
		if err == nil {
			return l
		}
		if time.Now().After(deadline) {
			qr.t.Fatalf("rebinding %s: %v", qr.members[i].Addr, err)
		}
	}
}

// ingest posts jobs first..first+n-1 as one batch through node via and
// records the set each will be categorized into.
func (qr *queryRing) ingest(via, first, n int, sets map[store.TraceID]category.Set) {
	qr.t.Helper()
	var blobs [][]byte
	for seed := first; seed < first+n; seed++ {
		j := testJob(seed)
		blob := encodeJob(qr.t, j)
		blobs = append(blobs, blob)
		sets[store.HashBytes(blob)] = variedSet(j.JobID)
	}
	req := httptest.NewRequest("POST", "/v1/traces:batch", batchBody(blobs...))
	req.Header.Set("Content-Type", BatchContentType)
	rec := httptest.NewRecorder()
	qr.nodes[via].srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 202 || strings.Count(rec.Body.String(), `"id"`) != n {
		qr.t.Fatalf("batch through %s: status %d: %s", qr.nodes[via].id, rec.Code, rec.Body.String())
	}
}

// settle waits until every live node has indexed every trace of sets it
// is a replica of — results pushed, hints replayed, repairs done — and
// believes every other live node up and every dead one down.
func (qr *queryRing) settle(sets map[store.TraceID]category.Set) {
	qr.t.Helper()
	table := qr.nodes[0].srv.Cluster().Table()
	var why string
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		why = ""
	check:
		for _, nd := range qr.nodes {
			if nd.down {
				continue
			}
			for _, other := range qr.nodes {
				if other != nd && nd.srv.Cluster().Healthy(other.id) == other.down {
					why = fmt.Sprintf("%s has not noticed that %s is down=%v", nd.id, other.id, other.down)
					break check
				}
			}
			if nd.srv.Cluster().HintsPending() > 0 {
				why = nd.id + " still owes hints"
				break check
			}
			for id, set := range sets {
				if !table.IsReplica(string(id), nd.id) {
					continue
				}
				if got, ok := nd.srv.ix.Set(id); !ok || got != set {
					why = fmt.Sprintf("%s has not indexed %s", nd.id, id[:12])
					break check
				}
			}
		}
		if why == "" {
			return
		}
	}
	qr.t.Fatalf("the ring never settled: %s", why)
}

// scatterQueries is the table of satellite (a): a point query, a heavy
// AND, a heavy NOT, an OR, everything and nothing.
var scatterQueries = []string{
	"metadata_high_spike",
	"write_on_end AND read_on_start",
	"NOT write_periodic",
	"write_on_end OR read_steady",
	"write_on_end OR NOT write_on_end",
	"write_on_end AND NOT write_on_end",
}

// checkAgainstStandalone asks every live node every query of the table
// under every limit and requires the bytes a standalone server answers
// over held — the traces some live node holds — with the partial flag
// when a node is down. The standalone server's own count and page are
// checked against index.Oracle once, so "equals the oracle" holds for
// every body compared with its.
func (qr *queryRing) checkAgainstStandalone(held map[store.TraceID]category.Set, partial bool) {
	qr.t.Helper()
	alone, _ := newTestServer(qr.t, Config{Workers: 1, NoBackfill: true})
	defer alone.Shutdown(context.Background())
	or := index.NewOracle()
	var entries []index.Entry
	for id, set := range held {
		entries = append(entries, index.Entry{ID: id, Cats: set})
		or.Add(id, set)
	}
	alone.ix.Load(entries)
	h := alone.Handler()
	for _, q := range scatterQueries {
		all, err := or.Query(q)
		if err != nil {
			qr.t.Fatal(err)
		}
		for _, limit := range []int{-1, 0, 1, 7, 100, len(all) + 1} {
			target := "/v1/query?q=" + url.QueryEscape(q)
			want := all
			if limit >= 0 {
				target += fmt.Sprintf("&limit=%d", limit)
				want = all[:min(limit, len(all))]
			}
			ids := make([]string, len(want))
			for i, id := range want {
				ids[i] = string(id)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
			if oracle := oracleQueryReply(qr.t, queryReply{Query: q, Count: len(all), IDs: ids}); !bytes.Equal(rec.Body.Bytes(), oracle) {
				qr.t.Fatalf("standalone GET %s:\n%.300s\nthe oracle gives\n%.300s", target, rec.Body.Bytes(), oracle)
			}
			body := rec.Body.Bytes()
			if partial {
				body = oracleQueryReply(qr.t, queryReply{Query: q, Count: len(all), Partial: true, IDs: ids})
			}
			for _, nd := range qr.nodes {
				if nd.down {
					continue
				}
				got := httptest.NewRecorder()
				nd.srv.Handler().ServeHTTP(got, httptest.NewRequest("GET", target, nil))
				if got.Code != 200 || !bytes.Equal(got.Body.Bytes(), body) {
					qr.t.Fatalf("GET %s through %s: status %d\n%.400s\nwant\n%.400s", target, nd.id, got.Code, got.Body.Bytes(), body)
				}
			}
		}
	}
}

// TestClusterQueryEqualsOracle: whatever the ring's shape, a query
// through any node answers what one index over everything ingested
// answers, byte for byte — at rest, with a node dead (what its death
// leaves unreachable at RF 1 aside, and flagged partial), and once a
// restarted node has been handed what it missed.
func TestClusterQueryEqualsOracle(t *testing.T) {
	for _, n := range []int{1, 3, 4} {
		for rf := 1; rf <= 3; rf++ {
			t.Run(fmt.Sprintf("n%d_rf%d", n, rf), func(t *testing.T) {
				qr := startQueryRing(t, n, rf, 30*time.Millisecond)
				sets := map[store.TraceID]category.Set{}
				for b := 0; b < 4; b++ {
					qr.ingest(b%n, 1000*n+100*rf+16*b, 16, sets)
				}
				qr.settle(sets)
				qr.checkAgainstStandalone(sets, false)
				if n == 1 {
					return
				}

				victim := n - 1
				qr.kill(victim)
				qr.settle(sets)
				table := qr.nodes[0].srv.Cluster().Table()
				held := map[store.TraceID]category.Set{}
				for id, set := range sets {
					if reps := table.Replicas(string(id)); len(reps) > 1 || reps[0].ID != qr.nodes[victim].id {
						held[id] = set
					}
				}
				if min(rf, n) > 1 && len(held) != len(sets) {
					t.Fatalf("%d of %d traces have a live replica at RF %d", len(held), len(sets), rf)
				}
				qr.checkAgainstStandalone(held, true)

				// Writes while it is dead land on the survivors — at RF 1
				// as sloppy writes — and are owed to it as hints.
				during := map[store.TraceID]category.Set{}
				qr.ingest(0, 1000*n+100*rf+64, 16, during)
				for id, set := range during {
					sets[id], held[id] = set, set
				}
				qr.restart(victim)
				qr.settle(sets)
				qr.checkAgainstStandalone(sets, false)
			})
		}
	}
}

// classmates returns n fresh trace IDs of one placement class: a owns
// them, b follows.
func classmates(t *testing.T, table *ring.Table, a, b string, n int) []store.TraceID {
	t.Helper()
	var out []store.TraceID
	for i := 0; len(out) < n; i++ {
		id := store.HashBytes([]byte(fmt.Sprintf("classmate-%d", i)))
		if reps := table.Replicas(string(id)); reps[0].ID == a && reps[1].ID == b {
			out = append(out, id)
		}
		if i > 1<<16 {
			t.Fatalf("no %d keys held by %s and %s", n, a, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestClusterCountWhileReplicasDiffer pins the one place the ring's
// count may differ from the size of the union of what its nodes hold
// (DESIGN §13): while the two holders of a placement class each lack
// matches the other has, the class counts its larger holder, not the
// union. The page is still the union's, the query's span says a class
// was skewed, and the count is the union's again once each holder has
// what the other had.
func TestClusterCountWhileReplicasDiffer(t *testing.T) {
	qr := startQueryRing(t, 3, 2, time.Hour)
	a, b := qr.nodes[0], qr.nodes[1]
	ids := classmates(t, a.srv.Cluster().Table(), a.id, b.id, 4)
	woe := category.NewSet("write_on_end")
	// a holds the first three, b the last two: a lacks one of b's, b
	// lacks two of a's.
	for _, id := range ids[:3] {
		a.srv.ix.Add(id, woe)
	}
	for _, id := range ids[2:] {
		b.srv.ix.Add(id, woe)
	}
	query := func(nd *queryRingNode, target string) (string, map[string]string) {
		t.Helper()
		rec := httptest.NewRecorder()
		nd.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		tid, _, ok := reqtrace.ParseTraceparent(rec.Header().Get("Traceparent"))
		det, found := nd.flight.Get(tid.String())
		if rec.Code != 200 || !ok || !found {
			t.Fatalf("GET %s through %s: status %d, trace found %v", target, nd.id, rec.Code, found)
		}
		attrs := map[string]string{}
		for _, sp := range det.SpanTree {
			if sp.Name == "query.eval" {
				for _, at := range sp.Attrs {
					attrs[at.Key] = at.Value
				}
			}
		}
		return rec.Body.String(), attrs
	}
	str := func(ids []store.TraceID) (out []string) {
		for _, id := range ids {
			out = append(out, string(id))
		}
		return out
	}
	for _, nd := range qr.nodes { // a holder, the other holder, a node holding nothing
		body, attrs := query(nd, "/v1/query?q=write_on_end&limit=4")
		want := oracleQueryReply(t, queryReply{Query: "write_on_end", Count: 3, IDs: str(ids)})
		if body != string(want) || attrs["classes_skewed"] != "1" || attrs["matches"] != "3" {
			t.Fatalf("while the holders differ, through %s (span %v):\n%s\nwant count 3 — the larger holder — over the union's page:\n%s", nd.id, attrs, body, want)
		}
	}
	// What hint replay does: each holder gets what it lacked.
	a.srv.ix.Add(ids[3], woe)
	b.srv.ix.Add(ids[0], woe)
	b.srv.ix.Add(ids[1], woe)
	for _, nd := range qr.nodes {
		body, attrs := query(nd, "/v1/query?q=write_on_end")
		want := oracleQueryReply(t, queryReply{Query: "write_on_end", Count: 4, IDs: str(ids)})
		if body != string(want) || attrs["classes_skewed"] != "0" {
			t.Fatalf("once the holders agree, through %s (span %v):\n%s\nwant\n%s", nd.id, attrs, body, want)
		}
	}
}

// loadByPlacement gives every node of the ring perNode·len(nodes)/RF
// synthetic traces between them, each on the nodes of its replica set —
// what ingest, replication and result pushes leave behind, without
// running them. Every trace is read_on_start, one in 512 write_periodic.
func loadByPlacement(qr *queryRing, perNode int) {
	table := qr.nodes[0].srv.Cluster().Table()
	entries := make(map[string][]index.Entry)
	for i := 0; i < perNode*len(qr.nodes)/table.RF(); i++ {
		id := store.TraceID(fmt.Sprintf("%064x", uint64(i)*0x9e3779b97f4a7c15))
		set := category.NewSet("read_on_start")
		if i%512 == 0 {
			set.Add("write_periodic")
		}
		for _, n := range table.Replicas(string(id)) {
			entries[n.ID] = append(entries[n.ID], index.Entry{ID: id, Cats: set})
		}
	}
	for _, nd := range qr.nodes {
		nd.srv.ix.Load(entries[nd.id])
	}
}

// TestScatterReplyIsPageSized: what a scatter query moves and allocates
// follows the page asked for, not the matches behind it.
func TestScatterReplyIsPageSized(t *testing.T) {
	qr := startQueryRing(t, 4, 2, time.Hour)
	entry := qr.nodes[0].srv
	table := entry.Cluster().Table()
	const q, limit = "NOT write_periodic", 100
	target := fmt.Sprintf("/v1/query?q=%s&limit=%d", url.QueryEscape(q), limit)
	h := entry.Handler()
	// Allocations and bytes per query, the whole in-process ring's: with
	// the collector off no pool is emptied under the measurement, so what
	// is left is what a query itself asks for — and whatever the ring's
	// background probes allocated meanwhile, as MemStats counts the whole
	// process. Each figure is the least of several measurements, which a
	// probe can only raise.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cost := func() (allocs, bytes float64) {
		const runs, measurements = 50, 5
		allocs, bytes = math.Inf(1), math.Inf(1)
		for range measurements {
			var before, after runtime.MemStats
			for i := -5; i < runs; i++ {
				if i == 0 {
					runtime.ReadMemStats(&before)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
				if rec.Code != 200 || strings.Contains(rec.Body.String(), `"partial"`) || strings.Count(rec.Body.String(), "\n    \"") != limit {
					t.Fatalf("GET %s: status %d: %.200s", target, rec.Code, rec.Body.String())
				}
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/runs)
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return allocs, bytes
	}
	loadByPlacement(qr, 2000)
	smallAllocs, smallBytes := cost()
	loadByPlacement(qr, 20000)
	if allocs, bytes := cost(); allocs > smallAllocs+2 || bytes > 1.1*smallBytes {
		t.Fatalf("a query costs %.1f allocations and %.0f bytes at 20 000 IDs per node, %.1f and %.0f at 2 000",
			allocs, bytes, smallAllocs, smallBytes)
	}

	// The request a peer gets, by hand: [u64 table version][i32 limit][q].
	req := binary.LittleEndian.AppendUint64(nil, table.Version())
	req = append(binary.LittleEndian.AppendUint32(req, limit), q...)
	for _, m := range qr.members[1:] {
		cl := ring.NewClient(m.Addr, 2*time.Second)
		reply, err := cl.Call(context.Background(), ring.OpQuery, "query", "size", req)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if bound := limit*(4+64) + 6*table.Classes() + 16; len(reply) > bound || len(reply) < limit*(4+64) {
			t.Fatalf("%s answers limit=%d over ~20 000 matches in %d bytes; a page and its counts are at most %d", m.ID, limit, len(reply), bound)
		}
	}
}

// TestQueryThroughPeerItCannotReadIsPartial: whatever a peer answers a
// query with that this node cannot take at its word — bytes that are no
// reply, a class its table does not have, a refusal because the peer
// routes by another table — the peer counts as not having answered:
// partial, this node's own matches, no panic.
func TestQueryThroughPeerItCannotReadIsPartial(t *testing.T) {
	answers := map[string]func() ([]byte, error){
		"garbage":       func() ([]byte, error) { return []byte("\x00\xff\xff garbage"), nil },
		"old JSON":      func() ([]byte, error) { return []byte(`{"ids":["a","b"]}`), nil },
		"unknown class": func() ([]byte, error) { return []byte{0, 1, 0, 9, 0, 5, 0, 0, 0}, nil },
		"more than the page": func() ([]byte, error) {
			return []byte{0, 0, 0, 1, 0, 0, 0, 'a', 1, 0, 0, 0, 'b', 1, 0, 0, 0, 'c'}, nil
		},
		"another table": func() ([]byte, error) {
			return nil, fmt.Errorf("ring: query under routing table 1; this node routes by 2")
		},
		"empty": func() ([]byte, error) { return nil, nil },
	}
	var answer atomic.Pointer[func() ([]byte, error)]
	fake := ring.NewServer(ring.ServerOptions{})
	fake.Handle(ring.OpQuery, "query", func(context.Context, *ring.Frame) ([]byte, error) { return (*answer.Load())() })
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fake.Serve(fl) //nolint:errcheck
	defer fake.Kill()
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rcfg := ring.Config{
		Self:        "node-0",
		Nodes:       []ring.Node{{ID: "node-0", Addr: sl.Addr().String()}, {ID: "fake", Addr: fl.Addr().String()}},
		Replication: 2, RPCTimeout: 2 * time.Second, ProbeInterval: time.Hour,
	}
	s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true, Cluster: &rcfg})
	go s.ServeCluster(sl) //nolint:errcheck
	defer s.Shutdown(context.Background())
	mine := []string{strings.Repeat("1", 64), strings.Repeat("2", 64)}
	for _, id := range mine {
		s.ix.Add(store.TraceID(id), category.NewSet("write_on_end"))
	}
	want := oracleQueryReply(t, queryReply{Query: "write_on_end", Count: 2, Partial: true, IDs: mine})
	names := make([]string, 0, len(answers))
	for name := range answers {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fn := answers[name]
		answer.Store(&fn)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query?q=write_on_end&limit=2", nil))
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("peer answering %s: status %d\n%s\nwant\n%s", name, rec.Code, rec.Body.Bytes(), want)
		}
	}
	if !s.Cluster().Healthy("fake") {
		t.Error("a peer that answered — unreadably — was marked down")
	}
}
