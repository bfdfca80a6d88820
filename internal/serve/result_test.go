package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// The legacy fixture of internal/store (see its README): results written
// by the store code that predates the served form.
const (
	fixtureDir = "../store/testdata/legacy-store"
	fixtureFP  = "cfg-legacy-fixture"
)

func fixtureID(name string) store.TraceID {
	sum := sha256.Sum256([]byte("legacy/" + name))
	return store.TraceID(hex.EncodeToString(sum[:]))
}

// fixtureResults recomputes the archetype results the fixture holds,
// the way its generator did, keyed by fixture name.
func fixtureResults(t *testing.T) map[string]*core.Result {
	t.Helper()
	out := map[string]*core.Result{}
	archs := append(gen.DefaultArchetypes(), gen.DXTCheckpointerArchetype(false), gen.DXTCheckpointerArchetype(true))
	for _, arch := range archs {
		rng := rand.New(rand.NewSource(17))
		p := arch.Params(rng)
		b := gen.NewBuilder(rng, "legacy", arch.Exe, 17, p.Ranks, p.RuntimeBase)
		arch.Build(b, p)
		j := b.Job()
		for _, disable := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.DisableDXT = disable
			res, err := core.Categorize(j, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mode := "dxt_on"
			if disable {
				mode = "dxt_off"
			}
			out[arch.Name+"/"+mode] = res
		}
	}
	return out
}

// openFixtureCopy opens the store in dir, first copying the fixture
// there when dir is empty.
func openFixtureCopy(t *testing.T, dir string) *store.Store {
	t.Helper()
	seg := filepath.Join(dir, "000001.seg")
	if _, err := os.Stat(seg); err != nil {
		data, err := os.ReadFile(filepath.Join(fixtureDir, "000001.seg"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// encoderBody is the body the route sent while it re-encoded the decoded
// result on every read — json.Encoder, two-space indent — and the
// reference for what it sends now.
func encoderBody(t *testing.T, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resultReadSpan returns the attributes of the one span a result
// request's trace holds under its root.
func resultReadSpan(t *testing.T, rec *reqtrace.Recorder, resp *httptest.ResponseRecorder) map[string]string {
	t.Helper()
	tid, _, ok := reqtrace.ParseTraceparent(resp.Header().Get("Traceparent"))
	if !ok {
		t.Fatalf("traceparent %q", resp.Header().Get("Traceparent"))
	}
	det, ok := rec.Get(tid.String())
	if !ok {
		t.Fatal("result trace not in the recorder")
	}
	if len(det.SpanTree) != 2 || det.SpanTree[0].Name != "result.read" || det.SpanTree[0].Parent != det.SpanTree[1].ID {
		t.Fatalf("spans %+v, want result.read under the root and nothing else", det.SpanTree)
	}
	attrs := map[string]string{}
	for _, a := range det.SpanTree[0].Attrs {
		attrs[a.Key] = a.Value
	}
	return attrs
}

// TestResultRouteMatchesEncoder drives GET /v1/results/{id} over records
// an old store wrote and records this code writes, each from a cold
// cache and from a warm one: always the bytes json.Encoder gives for the
// result, with their length announced, and one result.read span saying
// how many bytes and whether the cache had them.
func TestResultRouteMatchesEncoder(t *testing.T) {
	dir := t.TempDir()
	results := fixtureResults(t)
	served := func(name string) store.TraceID { return fixtureID("served/" + name) }

	// Pass one reads the fixture as it is and writes the same results in
	// the served form; pass two reopens the store, so the served records
	// are read cold too.
	for pass := 1; pass <= 2; pass++ {
		st := openFixtureCopy(t, dir)
		rec := reqtrace.NewRecorder(reqtrace.RecorderConfig{Capacity: 8})
		s, _ := newTestServer(t, Config{Store: st, Workers: 1, NoBackfill: true, Flight: rec})
		s.fp = fixtureFP // the fixture's results live under a fingerprint of its own
		h := s.Handler()
		get := func(id store.TraceID, want []byte, wantHit string) {
			t.Helper()
			resp := httptest.NewRecorder()
			h.ServeHTTP(resp, httptest.NewRequest("GET", "/v1/results/"+string(id), nil))
			if resp.Code != 200 || !bytes.Equal(resp.Body.Bytes(), want) {
				t.Fatalf("pass %d, GET %s: status %d\n%s\nwant\n%s", pass, id, resp.Code, resp.Body.Bytes(), want)
			}
			if ct, cl := resp.Header().Get("Content-Type"), resp.Header().Get("Content-Length"); ct != "application/json; charset=utf-8" || cl != fmt.Sprint(len(want)) {
				t.Fatalf("pass %d, GET %s: content type %q, length %q (body %d)", pass, id, ct, cl, len(want))
			}
			attrs := resultReadSpan(t, rec, resp)
			if attrs["bytes"] != fmt.Sprint(len(want)) || attrs["cache_hit"] != wantHit || len(attrs) != 2 {
				t.Fatalf("pass %d, GET %s: span attrs %v, want %d bytes, cache_hit %s", pass, id, attrs, len(want), wantHit)
			}
		}
		for name, res := range results {
			want := encoderBody(t, res)
			get(fixtureID(name), want, "false") // legacy, cold: converted on the way in
			get(fixtureID(name), want, "true")
			if pass == 1 {
				if err := st.PutResult(served(name), fixtureFP, res); err != nil {
					t.Fatal(err)
				}
			}
			// The cache fills on reads: a write leaves the record cold.
			get(served(name), want, "false")
			get(served(name), want, "true")
		}
		if st := st.Stats(); st.Hits != int64(len(results))*4 || st.Misses != 0 {
			t.Fatalf("pass %d: store counted %d hits, %d misses", pass, st.Hits, st.Misses)
		}
		// An unknown trace is still a miss in the store's books, and a 404.
		resp := httptest.NewRecorder()
		h.ServeHTTP(resp, httptest.NewRequest("GET", "/v1/results/"+string(fixtureID("no such trace")), nil))
		if resp.Code != http.StatusNotFound || st.Stats().Misses != 1 {
			t.Fatalf("unknown trace: status %d, %d misses", resp.Code, st.Stats().Misses)
		}
		_, metrics := getBodyFrom(t, h, "/metrics")
		for _, want := range []string{
			fmt.Sprintf(`mosaic_store_result_records{form="legacy"} %d`, len(results)+2),
			fmt.Sprintf(`mosaic_store_result_records{form="served"} %d`, len(results)),
		} {
			if !strings.Contains(metrics, want) {
				t.Errorf("pass %d: /metrics missing %q", pass, want)
			}
		}
		s.Shutdown(context.Background())
		st.Close()
	}
}

// getBodyFrom serves one GET from h in-process.
func getBodyFrom(t *testing.T, h http.Handler, target string) (int, string) {
	t.Helper()
	resp := httptest.NewRecorder()
	h.ServeHTTP(resp, httptest.NewRequest("GET", target, nil))
	return resp.Code, resp.Body.String()
}

// TestClusterResultRelay reads results through cluster nodes that do not
// hold them: the entry node relays the record a replica answers with, so
// the body is the encoder's bytes there too; and when the replicas that
// could hold a trace are unreachable the answer is 503, not a 404 that
// would declare an acknowledged trace unknown.
func TestClusterResultRelay(t *testing.T) {
	tc := startTestCluster(t, 3)
	j := testJob(77)
	blob := encodeJob(t, j)
	id := store.HashBytes(blob)
	resp, body := postBlob(t, tc.nodes[0].http.URL, blob)
	if resp.StatusCode >= 300 {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	res, err := core.Categorize(j, tc.nodes[0].srv.cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := encoderBody(t, res)
	holders := map[string]bool{}
	for _, n := range tc.nodes[0].srv.Cluster().Table().Replicas(string(id)) {
		holders[n.ID] = true
	}
	var outsider *clusterTestNode
	for _, nd := range tc.nodes {
		if !holders[nd.id] {
			outsider = nd
		}
	}
	if len(holders) != 2 || outsider == nil {
		t.Fatalf("replica set %v of a 3-node RF-2 ring", holders)
	}
	// Every node answers with the same bytes: the holders from their
	// stores (the follower's copy arrived as a pushed record), the
	// outsider by relaying.
	for _, nd := range tc.nodes {
		if got := waitResult(t, nd.http.URL, id); got != string(want) {
			t.Fatalf("%s (holder=%v) answered\n%s\nwant\n%s", nd.id, holders[nd.id], got, want)
		}
	}
	if outsider.srv.st.HasResult(id, outsider.srv.fp) {
		t.Fatal("the outsider stored the result: the relay was not exercised")
	}
	// ... and the follower's copy is the owner's record, pushed — not a
	// categorization of its own after RepairAfter. (Until the push lands
	// the follower relays too.)
	waitFor(t, "the owner to see its push acknowledged", func() bool {
		var pushes int64
		for _, nd := range tc.nodes {
			pushes += nd.srv.Cluster().Metrics().ResultPushes.Value()
		}
		return pushes == 1
	})
	for _, nd := range tc.nodes {
		if holders[nd.id] {
			rec, ok, err := nd.srv.st.GetResultBytes(id, nd.srv.fp)
			if err != nil || !ok || !bytes.Equal(rec[store.ResultHeadLen:], want) {
				t.Fatalf("%s holds no served record of the result (ok=%v err=%v)", nd.id, ok, err)
			}
		}
	}

	// With both holders gone the outsider cannot know: 503 while it still
	// believes them up (the calls fail) and after the prober marks them
	// down (nobody to ask) — for the known trace and an unknown one alike.
	for _, nd := range tc.nodes {
		if holders[nd.id] {
			nd.srv.Kill()
			nd.rpc.Close()
		}
	}
	// Any ID's replica set is two of the three nodes, so at least one
	// replica of the unknown ID is among the dead as well.
	unknown := store.HashBytes([]byte("never ingested"))
	check := func(when string) {
		t.Helper()
		for _, tid := range []store.TraceID{id, unknown} {
			resp, body := getBody(t, outsider.http.URL+"/v1/results/"+string(tid))
			if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "replica set") {
				t.Fatalf("%s, %s: status %d: %s", when, tid, resp.StatusCode, body)
			}
		}
	}
	check("holders just killed")
	waitFor(t, "the outsider to mark both holders down", func() bool {
		for h := range holders {
			if outsider.srv.Cluster().Healthy(h) {
				return false
			}
		}
		return true
	})
	check("holders marked down")
}

// TestResultPushIndexesFromMask: a pushed record is indexed from its
// head, a record whose head lies about its body is refused and leaves no
// trace in store or index, and the compact document an older node pushes
// is converted and indexed like any other.
func TestResultPushIndexesFromMask(t *testing.T) {
	tc := startTestCluster(t, 2)
	nd := tc.nodes[1]
	cn, fp := nd.srv.cluster, nd.srv.fp
	ctx := context.Background()
	res, err := core.Categorize(testJob(5), nd.srv.cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	record := func(r *core.Result) []byte {
		t.Helper()
		id := store.HashBytes([]byte(fmt.Sprint(r.Labels)))
		if err := src.PutResult(id, fp, r); err != nil {
			t.Fatal(err)
		}
		rec, ok, err := src.GetResultBytes(id, fp)
		if err != nil || !ok {
			t.Fatal(err)
		}
		return bytes.Clone(rec)
	}
	good := store.HashBytes([]byte("good"))
	if err := cn.HandleResultPush(ctx, string(good), fp, record(res)); err != nil {
		t.Fatal(err)
	}
	if got, ok := nd.srv.ix.Set(good); !ok || got != res.Categories {
		t.Fatalf("indexed %v, want %v", got, res.Labels)
	}

	open := *res
	open.Labels = append(append([]string(nil), res.Labels...), "site_custom_label")
	custom := store.HashBytes([]byte("custom"))
	if err := cn.HandleResultPush(ctx, string(custom), fp, record(&open)); err != nil {
		t.Fatal(err)
	}
	if got, ok := nd.srv.ix.Set(custom); !ok || got != res.Categories|category.Open {
		t.Fatalf("open record indexed as %#x, want the closed labels of %v and the open bit", uint64(got), open.Labels)
	}

	bad := store.HashBytes([]byte("bad"))
	flipped := record(res)
	flipped[0] ^= 0x80
	if err := cn.HandleResultPush(ctx, string(bad), fp, flipped); err == nil {
		t.Fatal("a record whose mask differs from its labels was accepted")
	}
	if err := cn.HandleResultPush(ctx, string(bad), fp, record(res)[:5]); err == nil {
		t.Fatal("a truncated head was accepted")
	}
	if _, ok := nd.srv.ix.Set(bad); ok || nd.srv.st.HasResult(bad, fp) {
		t.Fatal("a refused push reached the store or the index")
	}

	compact, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	old := store.HashBytes([]byte("old peer"))
	if err := cn.HandleResultPush(ctx, string(old), fp, compact); err != nil {
		t.Fatalf("compact document from an older peer refused: %v", err)
	}
	if got, ok := nd.srv.ix.Set(old); !ok || got != res.Categories {
		t.Fatalf("converted push indexed as %v, want %v", got, res.Labels)
	}
	code, body := getBodyFrom(t, nd.srv.Handler(), "/v1/results/"+string(old))
	if code != 200 || body != string(encoderBody(t, res)) {
		t.Fatalf("converted push served as %d\n%s", code, body)
	}
	if st := nd.srv.st.Stats(); st.LegacyResults != 0 {
		t.Fatalf("%d legacy records after a converted push", st.LegacyResults)
	}
}

// TestOpenRecordOnANode: a stored result with a label outside the
// taxonomy is served whole and indexed under the labels the taxonomy
// has. /v1/stats names no category it could not be queried by — it used
// to file the foreign label under temporality.
func TestOpenRecordOnANode(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := core.DefaultConfig()
	res, err := core.Categorize(testJob(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Labels = []string{"metadata_high_spike", "read_on_start", "site_custom_label"}
	id := store.HashBytes([]byte("open"))
	if err := st.PutResult(id, cfg.Normalized().Fingerprint(), res); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Store: st, Analysis: cfg})
	defer s.Shutdown(context.Background())

	code, body := getBodyFrom(t, s.Handler(), "/v1/stats")
	var stats StatsResponse
	if err := json.Unmarshal([]byte(body), &stats); code != 200 || err != nil {
		t.Fatalf("/v1/stats: %d %v\n%s", code, err, body)
	}
	if stats.Indexed != 1 {
		t.Fatalf("indexed_traces = %d, want the open record counted", stats.Indexed)
	}
	named := 0
	for axis, counts := range stats.Axes {
		for _, c := range counts {
			if !slices.Contains(category.All(), c.Category) || c.Category.Axis().String() != axis || c.Count != 1 {
				t.Errorf("axis %q lists %q x%d", axis, c.Category, c.Count)
			}
			named++
		}
	}
	if named != 2 {
		t.Errorf("axes name %d categories, want the record's two known labels:\n%s", named, body)
	}
	for q, want := range map[string]bool{"NOT write_on_end": true, "read_on_start": true, "write_on_end": false} {
		code, body := getBodyFrom(t, s.Handler(), "/v1/query?q="+strings.ReplaceAll(q, " ", "+"))
		if code != 200 || strings.Contains(body, string(id)) != want {
			t.Errorf("query %q: status %d, answer holds the open record: %v, want %v\n%s", q, code, !want, want, body)
		}
	}
	code, body = getBodyFrom(t, s.Handler(), "/v1/results/"+string(id))
	if code != 200 || body != string(encoderBody(t, res)) || !strings.Contains(body, "site_custom_label") {
		t.Fatalf("open record served as %d\n%s", code, body)
	}
}
