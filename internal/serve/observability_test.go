package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/events"
	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

func getHealth(t *testing.T, url string) healthResponse {
	t.Helper()
	resp, body := getBody(t, url+"/v1/cluster/health")
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/cluster/health: status %d: %s", resp.StatusCode, body)
	}
	var h healthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	return h
}

func getEvents(t *testing.T, url, params string) eventsResponse {
	t.Helper()
	resp, body := getBody(t, url+"/v1/events"+params)
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/events: status %d: %s", resp.StatusCode, body)
	}
	var er eventsResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatal(err)
	}
	return er
}

func hasEvent(er eventsResponse, typ, peer string) bool {
	for _, e := range er.Events {
		if e.Type == typ && (peer == "" || e.Fields["peer"] == peer) {
			return true
		}
	}
	return false
}

// TestClusterHealthFailureDrill is the in-process version of the CI
// drill: a 3-node fleet reports ok from any vantage point, flips the
// rollup to degraded within the probe interval of a kill -9, journals
// node_down, and journals node_up when the member returns.
func TestClusterHealthFailureDrill(t *testing.T) {
	tc := startTestCluster(t, 3)
	entry, victim := tc.nodes[0], tc.nodes[2]

	// All three nodes answer a fleet-wide ok from any member.
	for _, nd := range tc.nodes {
		h := getHealth(t, nd.http.URL)
		if h.Status != ring.StatusHealthOK || len(h.Nodes) != 3 {
			t.Fatalf("initial health on %s: status=%s nodes=%d (%+v)", nd.id, h.Status, len(h.Nodes), h)
		}
		if h.Node != nd.id {
			t.Fatalf("health answered by %q, asked %s", h.Node, nd.id)
		}
	}

	victim.srv.Kill()
	victim.http.Close()

	// The rollup flips once the survivors' probes notice (50ms interval
	// in this harness); the dead member appears as down, not omitted.
	deadline := time.Now().Add(10 * time.Second)
	var h healthResponse
	for time.Now().Before(deadline) {
		h = getHealth(t, entry.http.URL)
		if h.Status == ring.StatusHealthDegraded {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if h.Status != ring.StatusHealthDegraded {
		t.Fatalf("rollup never flipped to degraded: %+v", h)
	}
	foundDown := false
	for _, n := range h.Nodes {
		if n.Node == victim.id {
			foundDown = n.Status == ring.StatusHealthDown
		}
	}
	if !foundDown {
		t.Fatalf("victim %s not reported down: %+v", victim.id, h.Nodes)
	}

	// The journal carries the transition.
	er := getEvents(t, entry.http.URL, "")
	if !hasEvent(er, events.TypeNodeDown, victim.id) {
		t.Fatalf("no node_down event for %s in journal: %+v", victim.id, er.Events)
	}
	downSeq := er.Last

	// Resurrect the victim: a fresh server with the same identity on the
	// same RPC address. The survivors' probes mark it up again.
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	members := make([]ring.Node, len(tc.nodes))
	for i, nd := range tc.nodes {
		members[i] = ring.Node{ID: nd.id, Addr: nd.rpc.Addr().String()}
	}
	l, err := net.Listen("tcp", victim.rpc.Addr().String())
	if err != nil {
		t.Fatalf("rebinding victim RPC addr: %v", err)
	}
	reborn, err := New(Config{Store: st, Workers: 1, Cluster: &ring.Config{
		Self: victim.id, Nodes: members, Replication: 2, ReplicaAck: 1,
		ProbeInterval: 50 * time.Millisecond, RPCTimeout: 2 * time.Second,
		HintRetry: 100 * time.Millisecond, RepairAfter: 300 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	go reborn.ServeCluster(l) //nolint:errcheck
	t.Cleanup(func() { reborn.Kill() })

	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		// Cursor pagination across the transition: resume after the
		// node_down page's last sequence.
		if er := getEvents(t, entry.http.URL, fmt.Sprintf("?since=%d", downSeq)); hasEvent(er, events.TypeNodeUp, victim.id) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	er = getEvents(t, entry.http.URL, fmt.Sprintf("?since=%d", downSeq))
	if !hasEvent(er, events.TypeNodeUp, victim.id) {
		t.Fatalf("no node_up event for %s after seq %d: %+v", victim.id, downSeq, er.Events)
	}
	// Every member's probe notices the resurrection within its own
	// interval; poll until the rollup recovers.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if h = getHealth(t, entry.http.URL); h.Status == ring.StatusHealthOK {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("rollup did not recover to ok: %+v", h)
}

// TestEventsEndpointFilters exercises pagination and severity filtering
// over a single node's journal.
func TestEventsEndpointFilters(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 10; i++ {
		sev := events.SevInfo
		if i%2 == 1 {
			sev = events.SevError
		}
		s.Events().Emit(sev, "test_event", fmt.Sprintf("event %d", i))
	}

	all := getEvents(t, ts.URL, "")
	if all.Count != 10 || len(all.Events) != 10 {
		t.Fatalf("want 10 events, got %d", all.Count)
	}
	errsOnly := getEvents(t, ts.URL, "?severity=error")
	if errsOnly.Count != 5 {
		t.Fatalf("severity=error: want 5, got %d", errsOnly.Count)
	}
	page1 := getEvents(t, ts.URL, "?limit=4")
	if page1.Count != 4 {
		t.Fatalf("limit=4: got %d", page1.Count)
	}
	page2 := getEvents(t, ts.URL, fmt.Sprintf("?since=%d", page1.Events[3].Seq))
	if page2.Count != 6 {
		t.Fatalf("resumed page: want the remaining 6, got %d", page2.Count)
	}
	if page2.Events[0].Seq != page1.Events[3].Seq+1 {
		t.Fatalf("cursor skipped: page1 ends %d, page2 starts %d",
			page1.Events[3].Seq, page2.Events[0].Seq)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/events?severity=nope"); resp.StatusCode != 400 {
		t.Fatalf("bad severity: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/events?since=x"); resp.StatusCode != 400 {
		t.Fatalf("bad since: status %d, want 400", resp.StatusCode)
	}
}

// TestSingleNodeHealth: the health document degrades gracefully to a
// one-node fleet outside cluster mode.
func TestSingleNodeHealth(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	h := getHealth(t, ts.URL)
	if h.Status != ring.StatusHealthOK || len(h.Nodes) != 1 {
		t.Fatalf("single-node health: %+v", h)
	}
	if h.Nodes[0].GoVersion == "" || h.Nodes[0].Goroutines < 1 {
		t.Fatalf("vitals missing: %+v", h.Nodes[0])
	}
}

// TestClusterMetricsFederation asserts /v1/cluster/metrics merges every
// node's registry into one exposition, and ?node=1 keeps them separate
// under a node label.
func TestClusterMetricsFederation(t *testing.T) {
	tc := startTestCluster(t, 3)
	entry := tc.nodes[0]

	resp, body := getBody(t, entry.http.URL+"/v1/cluster/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/cluster/metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"mosaic_build_info",
		"mosaic_runtime_goroutines",
		"mosaic_serve_queue_depth",
		"mosaic_cluster_metrics_partial 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("federated exposition missing %q:\n%.3000s", want, body)
		}
	}

	resp, body = getBody(t, entry.http.URL+"/v1/cluster/metrics?node=1")
	if resp.StatusCode != 200 {
		t.Fatalf("?node=1: %d", resp.StatusCode)
	}
	for _, nd := range tc.nodes {
		if !strings.Contains(body, fmt.Sprintf(`node=%q`, nd.id)) {
			t.Fatalf("per-node exposition missing node %s:\n%.3000s", nd.id, body)
		}
	}
}

// TestEventJournalPersistsThroughSink wires an AppendLog sink under the
// server's journal and asserts emitted events survive a reopen.
func TestEventJournalPersistsThroughSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	elog, err := store.OpenAppendLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	ev := events.NewLog(events.Config{Sink: elog})
	s, _ := newTestServer(t, Config{Events: ev})
	s.Events().Emit(events.SevWarn, "test_persist", "before restart")
	shutdownServer(t, s)
	if err := elog.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := store.OpenAppendLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	var records [][]byte
	if err := reopened.Replay(func(v []byte) bool {
		records = append(records, append([]byte(nil), v...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	backlog := events.DecodeBacklog(records, 100)
	found := false
	for _, e := range backlog {
		if e.Type == "test_persist" {
			found = true
		}
	}
	if !found {
		t.Fatalf("persisted journal lost the event: %+v", backlog)
	}
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAlertRulesNameLiveSeries holds examples/observability/alerts.rules.yml
// to the server it alerts on: every mosaic_* series an expression reads
// must be one a server with an SLO target exports on /metrics. A renamed
// or misspelt series would leave the rule silent forever, never failing.
func TestAlertRulesNameLiveSeries(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "examples", "observability", "alerts.rules.yml"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// An expression is the expr: line and, for a block scalar, every line
	// indented deeper than its key.
	series := regexp.MustCompile(`mosaic_[a-z0-9_]+`)
	read := map[string]bool{}
	exprIndent := -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		text := strings.TrimLeft(line, " ")
		indent := len(line) - len(text)
		switch {
		case strings.HasPrefix(text, "expr:"):
			exprIndent = indent
		case exprIndent >= 0 && (text == "" || indent > exprIndent):
		default:
			exprIndent = -1
			continue
		}
		for _, name := range series.FindAllString(text, -1) {
			read[name] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(read) == 0 {
		t.Fatal("no mosaic_* series in any expr: of the rules file")
	}

	s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true, SLO: time.Second})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, body := postBlob(t, ts.URL, encodeJob(t, testJob(5300))); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	live := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.IndexAny(line, "{ "); i > 0 {
			live[line[:i]] = true
		}
	}
	for name := range read {
		if !live[name] {
			t.Errorf("alerts.rules.yml reads %s, which /metrics does not export", name)
		}
	}
}

// TestLocalStatusReasons: a node reports itself degraded, with one
// reason each, while its ingest queue is at least 90 % full, while it
// owes hinted handoffs and while peers are down — and ok otherwise.
func TestLocalStatusReasons(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T) *Server
		want  []string // reason patterns, in order
	}{
		{
			name: "idle",
			setup: func(t *testing.T) *Server {
				s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true})
				t.Cleanup(func() { shutdownServer(t, s) })
				return s
			},
		},
		{
			name: "queue full",
			setup: func(t *testing.T) *Server {
				exec := &blockingExec{release: make(chan struct{}), inner: engine.Local{Workers: 1}}
				s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4, NoBackfill: true, Executor: exec})
				t.Cleanup(func() {
					close(exec.release)
					shutdownServer(t, s)
				})
				ts := httptest.NewServer(s.Handler())
				t.Cleanup(ts.Close)
				// The first trace parks the one worker; the next four fill
				// the queue behind it.
				postBlob(t, ts.URL, encodeJob(t, testJob(5400)))
				waitFor(t, "the worker to take the first trace", func() bool { return len(s.queue) == 0 })
				for i := 1; i <= 4; i++ {
					if resp, body := postBlob(t, ts.URL, encodeJob(t, testJob(5400+i))); resp.StatusCode != http.StatusAccepted {
						t.Fatalf("ingest %d: status %d: %s", i, resp.StatusCode, body)
					}
				}
				return s
			},
			want: []string{`^ingest queue ≥90% full \(4/4\)$`},
		},
		{
			name: "peer down",
			setup: func(t *testing.T) *Server {
				return ringWithNodeDown(t).nodes[0].srv
			},
			want: []string{`^1 of 2 peers down$`},
		},
		{
			name: "peer down, hints owed",
			setup: func(t *testing.T) *Server {
				entry := ringWithNodeDown(t).nodes[0]
				// The entry places every copy: a follower copy for the dead
				// node becomes a hint on it.
				blobs := make([][]byte, 8)
				for i := range blobs {
					blobs[i] = encodeJob(t, testJob(5500+i))
				}
				postBatch(t, entry.http.URL, BatchContentType, batchBody(blobs...))
				waitFor(t, "a hint", func() bool { return entry.srv.Cluster().HintsPending() > 0 })
				return entry.srv
			},
			want: []string{`^[1-9][0-9]* hinted handoffs pending replay$`, `^1 of 2 peers down$`},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ss := c.setup(t).localStatus()
			wantStatus := ring.StatusHealthOK
			if len(c.want) > 0 {
				wantStatus = ring.StatusHealthDegraded
			}
			if ss.Status != wantStatus || len(ss.Reasons) != len(c.want) {
				t.Fatalf("status %q, reasons %q; want %q with %d reasons", ss.Status, ss.Reasons, wantStatus, len(c.want))
			}
			for i, re := range c.want {
				if !regexp.MustCompile(re).MatchString(ss.Reasons[i]) {
					t.Errorf("reason %d = %q, want it to match %s", i, ss.Reasons[i], re)
				}
			}
		})
	}
}

// ringWithNodeDown starts a three-node ring and kills its last node,
// returning once the first node's prober has marked it down.
func ringWithNodeDown(t *testing.T) *testCluster {
	t.Helper()
	tc := startTestCluster(t, 3)
	victim := tc.nodes[2]
	victim.srv.Kill()
	victim.http.Close()
	waitFor(t, "the survivor to notice", func() bool { return !tc.nodes[0].srv.Cluster().Healthy(victim.id) })
	return tc
}

// TestBackpressureEventsCoalesce: a burst of 429s within
// backpressureEventInterval journals one backpressure event, naming the
// first rejected request, not one per rejection.
func TestBackpressureEventsCoalesce(t *testing.T) {
	exec := &blockingExec{release: make(chan struct{}), inner: engine.Local{Workers: 1}}
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1, NoBackfill: true, Executor: exec})
	defer shutdownServer(t, s)
	defer close(exec.release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var rejected []string // X-Request-Id of every 429
	for i := 0; i < 12; i++ {
		resp, _ := postBlob(t, ts.URL, encodeJob(t, testJob(5600+i)))
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected = append(rejected, resp.Header.Get("X-Request-Id"))
		}
	}
	if len(rejected) < 5 {
		t.Fatalf("%d of 12 ingests answered 429 behind a parked worker and a queue of 1", len(rejected))
	}
	var bp []events.Event
	for _, e := range s.Events().Since(0, events.SevInfo, 4096).Events {
		if e.Type == events.TypeBackpressure {
			bp = append(bp, e)
		}
	}
	if len(bp) != 1 {
		t.Fatalf("%d 429s journaled %d backpressure events, want 1: %+v", len(rejected), len(bp), bp)
	}
	if got := bp[0].Fields["request_id"]; got != rejected[0] {
		t.Errorf("event names request %q, want the first rejected one, %q", got, rejected[0])
	}
	if got := bp[0].Fields["queue_capacity"]; got != "1" {
		t.Errorf("queue_capacity = %q, want 1", got)
	}
}

// TestOlderPeerStatusRollsUp: a peer built before StatusSnapshot lost
// active_alerts still sends it. The field is ignored on decode, and the
// peer's self-reported degraded status and reasons still reach the fleet
// health document and turn its rollup degraded.
func TestOlderPeerStatusRollsUp(t *testing.T) {
	var ls [2]net.Listener
	members := make([]ring.Node, len(ls))
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		members[i] = ring.Node{ID: fmt.Sprintf("node-%d", i), Addr: l.Addr().String()}
	}
	s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true, Cluster: &ring.Config{
		Self: members[0].ID, Nodes: members, Replication: 2, ReplicaAck: 1,
		ProbeInterval: 50 * time.Millisecond, RPCTimeout: 2 * time.Second,
	}})
	defer shutdownServer(t, s)
	go s.ServeCluster(ls[0]) //nolint:errcheck

	hello, err := json.Marshal(map[string]any{"node": members[1].ID, "version": s.Cluster().Table().Version()})
	if err != nil {
		t.Fatal(err)
	}
	old := ring.NewServer(ring.ServerOptions{Hello: hello})
	old.Handle(ring.OpStatus, "status", func(context.Context, *ring.Frame) ([]byte, error) {
		return []byte(`{"node":"node-1","status":"degraded","reasons":["2 alerts firing"],` +
			`"queue_depth":0,"queue_capacity":256,"peers_up":1,"peers_total":1,"active_alerts":2}`), nil
	})
	go old.Serve(ls[1]) //nolint:errcheck
	defer old.Kill()
	waitFor(t, "the older peer to answer probes", func() bool { return s.Cluster().Healthy(members[1].ID) })

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	h := getHealth(t, ts.URL)
	if h.Status != ring.StatusHealthDegraded || h.Partial || len(h.Nodes) != 2 {
		t.Fatalf("health = %+v, want a degraded rollup of two nodes, none missing", h)
	}
	peer := h.Nodes[1]
	if peer.Node != members[1].ID || peer.Status != ring.StatusHealthDegraded ||
		len(peer.Reasons) != 1 || peer.Reasons[0] != "2 alerts firing" || peer.QueueCapacity != 256 {
		t.Fatalf("older peer's entry = %+v, want its own degraded status and reason", peer)
	}
	if h.Nodes[0].Status != ring.StatusHealthOK {
		t.Fatalf("the local node's own status = %q, want ok", h.Nodes[0].Status)
	}
}

// seriesValue returns the value of the first exposition line of family
// name (with or without labels) whose text contains every fragment of
// want, and whether there was one.
func seriesValue(t *testing.T, body, name string, want ...string) (float64, bool) {
	t.Helper()
lines:
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") {
			continue
		}
		for _, w := range want {
			if !strings.Contains(line, w) {
				continue lines
			}
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		return v, true
	}
	return 0, false
}

// TestClusterGaugeRulesDoNotSum: the federated exposition adds counters
// across the fleet but not the gauges of clusterGaugeRules — three nodes
// of one build report one build_info, their GOMAXPROCS, and the fewest
// peers any of them can reach.
func TestClusterGaugeRulesDoNotSum(t *testing.T) {
	tc := startTestCluster(t, 3)
	for _, nd := range tc.nodes {
		waitFor(t, nd.id+" to see both peers", func() bool {
			up, total := nd.srv.Cluster().PeersUp()
			return up == 2 && total == 2
		})
		if resp, body := postBlob(t, nd.http.URL, encodeJob(t, testJob(5700))); resp.StatusCode >= 300 {
			t.Fatalf("ingest through %s: status %d: %s", nd.id, resp.StatusCode, body)
		}
	}
	_, body := getBody(t, tc.nodes[0].http.URL+"/v1/cluster/metrics")
	for _, c := range []struct {
		name string
		want float64
	}{
		{"mosaic_serve_ingest_requests_total", 3}, // a counter: summed
		{"mosaic_build_info", 1},
		{"mosaic_runtime_gomaxprocs", float64(runtime.GOMAXPROCS(0))},
		{"mosaic_ring_peers_up", 2},
	} {
		got, ok := seriesValue(t, body, c.name)
		if !ok || got != c.want {
			t.Errorf("federated %s = %v (present %v), want %v", c.name, got, ok, c.want)
		}
	}
}

// TestUnknownRouteCountsAsOther: a path no route serves answers 404 and
// is timed under route="other", so a scanner probing paths cannot mint
// per-route series.
func TestUnknownRouteCountsAsOther(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/v1/nope", "/v2/query", "/v1/nope"} {
		if resp, _ := getBody(t, ts.URL+path); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	_, body := getBody(t, ts.URL+"/metrics")
	if n, _ := seriesValue(t, body, "mosaic_http_request_seconds_count", `route="other"`); n != 3 {
		t.Errorf(`mosaic_http_request_seconds_count{route="other"} = %v, want 3`, n)
	}
	if strings.Contains(body, `route="/v1/nope"`) || strings.Contains(body, `route="/v2/query"`) {
		t.Errorf("an unknown path got its own route label:\n%s", grepLines(body, "route="))
	}
}

// TestEventsLimitBounds: /v1/events pages 256 events unless asked, never
// more than 4096 however many the journal keeps, and refuses a limit
// that is not a non-negative integer.
func TestEventsLimitBounds(t *testing.T) {
	ev := events.NewLog(events.Config{Capacity: 5000, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	for i := range 4500 {
		ev.Emit(events.SevInfo, "test_event", strconv.Itoa(i))
	}
	s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true, Events: ev})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, c := range []struct {
		params string
		want   int
	}{{"", 256}, {"?limit=10", 10}, {"?limit=5000", 4096}} {
		if got := getEvents(t, ts.URL, c.params).Count; got != c.want {
			t.Errorf("/v1/events%s: %d events, want %d", c.params, got, c.want)
		}
	}
	for _, bad := range []string{"-1", "x", "1.5"} {
		if resp, _ := getBody(t, ts.URL+"/v1/events?limit="+bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("limit=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}
