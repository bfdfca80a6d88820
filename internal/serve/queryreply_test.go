package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/index"
	"github.com/mosaic-hpc/mosaic/internal/jsontext"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// oracleQueryReply is the encoding /v1/query had before it got a writer
// of its own — reflection over an anonymous struct, then the two-space
// indent pass — kept as the reference the writer must match byte for
// byte.
func oracleQueryReply(t testing.TB, qr queryReply) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(struct {
		Query   string   `json:"query"`
		Count   int      `json:"count"`
		Partial bool     `json:"partial,omitempty"`
		IDs     []string `json:"ids"`
	}{Query: qr.Query, Count: qr.Count, Partial: qr.Partial, IDs: qr.IDs})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkQueryReply writes qr and compares the body with the oracle's.
func checkQueryReply(t testing.TB, qr queryReply) {
	t.Helper()
	rec := httptest.NewRecorder()
	n, err := writeQueryReply(context.Background(), rec, qr)
	if err != nil {
		t.Fatalf("writeQueryReply: %v", err)
	}
	want := oracleQueryReply(t, qr)
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) || n != int64(len(want)) {
		t.Fatalf("reply for query %q, %d ids (plain=%v): wrote %d bytes\n%.300q\nwant %d bytes\n%.300q",
			qr.Query, len(qr.IDs), qr.Plain, n, got, len(want), want)
	}
	if ct := rec.Header().Get("Content-Type"); rec.Code != 200 || ct != "application/json; charset=utf-8" {
		t.Fatalf("status %d, content type %q", rec.Code, ct)
	}
}

func hexIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%064x", i*7919)
	}
	return ids
}

// oddIDs need every escape encoding/json has for a string.
var oddIDs = []string{
	`quo"te`, `back\slash`, "ctl\x00\x01\x1f\n\t", "del\x7f", "<script>&amp;",
	"bad\xff\xfeutf8", "cut\xe2\x82", "line\u2028sep\u2029", "caf\u00e9 \u65e5\u672c", "",
}

func TestQueryReplyMatchesEncoder(t *testing.T) {
	queries := []string{"write_on_end", `a<b>&"c"\ NOT 'd'`, "caf\u00e9\u2028", "bad\xffq", ""}
	lists := map[string][]string{
		"nil": nil, "empty": {}, "one": hexIDs(1), "ten": hexIDs(10),
		"10k":   hexIDs(10_000), // eleven buffers' worth
		"odd":   oddIDs,
		"mixed": append(append(hexIDs(3), oddIDs...), hexIDs(2)...),
		// An ID that needs escaping and is longer than the whole buffer.
		"huge": {"a", strings.Repeat(`"`, queryReplyBufSize), strings.Repeat("x", 2*queryReplyBufSize), "b"},
	}
	for name, ids := range lists {
		vouchable := true
		for _, id := range ids {
			vouchable = vouchable && jsontext.Plain(id)
		}
		for _, q := range queries {
			for _, partial := range []bool{false, true} {
				qr := queryReply{Query: q, Count: len(ids) + 3, Partial: partial, IDs: ids}
				t.Run(fmt.Sprintf("%s/%q/partial=%v", name, q, partial), func(t *testing.T) {
					checkQueryReply(t, qr)
					if vouchable {
						qr.Plain = true
						checkQueryReply(t, qr)
					}
				})
			}
		}
	}
}

// FuzzQueryReply: whatever the query string and the IDs, the writer and
// encoding/json agree on every byte.
func FuzzQueryReply(f *testing.F) {
	f.Add("write_on_end", strings.Join(hexIDs(3), "\n"), 3, false)
	f.Add(`NOT "x" <&>`, strings.Join(oddIDs, "\n"), 0, true)
	f.Add("", "", -5, false)
	f.Add("q\xff", "\n\n", 1<<40, true)
	f.Add("periodic", strings.Repeat("a\\", 40)+"\n"+strings.Repeat(" ", 9), 2, false)
	f.Fuzz(func(t *testing.T, q, ids string, count int, partial bool) {
		qr := queryReply{Query: q, Count: count, Partial: partial}
		if ids != "" { // "" is the nil list, "\n" two empty IDs
			qr.IDs = strings.Split(ids, "\n")
		}
		checkQueryReply(t, qr)
		qr.Plain = jsontext.Plain(ids) // no newline either: one vouched-for ID
		if qr.Plain {
			checkQueryReply(t, qr)
		}
		qr.IDs = []string{}
		checkQueryReply(t, qr)
	})
}

// failingWriter is a ResponseWriter whose failAt-th Write (1-based) and
// every later one fail.
type failingWriter struct {
	h      http.Header
	failAt int
	writes int
}

func (w *failingWriter) Header() http.Header { return w.h }
func (w *failingWriter) WriteHeader(int)     {}
func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes >= w.failAt {
		return 0, errors.New("client went away")
	}
	return len(p), nil
}

// TestQueryReplyStopsForDepartedClient: an answer of eleven buffers
// whose second Write fails is abandoned there, and one whose context is
// already done is not written at all.
func TestQueryReplyStopsForDepartedClient(t *testing.T) {
	qr := queryReply{Query: "write_on_end", Count: 10_000, IDs: hexIDs(10_000), Plain: true}
	full := int64(len(oracleQueryReply(t, qr)))

	w := &failingWriter{h: http.Header{}, failAt: 2}
	n, err := writeQueryReply(context.Background(), w, qr)
	if err == nil || w.writes != 2 || n <= 0 || n >= full/2 {
		t.Fatalf("failing 2nd write: %d writes, %d of %d bytes, err %v; want 2 writes and that error", w.writes, n, full, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w = &failingWriter{h: http.Header{}, failAt: 1 << 30}
	n, err = writeQueryReply(ctx, w, qr)
	if !errors.Is(err, context.Canceled) || w.writes != 0 || n != 0 {
		t.Fatalf("cancelled context: %d writes, %d bytes, err %v", w.writes, n, err)
	}

	// The pool's buffer survived both and still serves a whole answer.
	checkQueryReply(t, qr)
}

// queryCorpus loads srv's index with n traces, every third one
// write_on_end, under IDs made by mk.
func queryCorpus(srv *Server, n int, mk func(i int) store.TraceID) {
	entries := make([]index.Entry, n)
	for i := range entries {
		cats := category.NewSet("read_on_start")
		if i%3 == 0 {
			cats.Add("write_on_end")
		}
		entries[i] = index.Entry{ID: mk(i), Cats: cats}
	}
	srv.ix.Load(entries)
}

// TestQueryHandlerMatchesEncoder drives the real route: for plain and
// for odd IDs, with and without an unfolded delta, every limit that is
// an edge for the answer gives the body the old encoder gave for
// QueryIDs cut afterwards.
func TestQueryHandlerMatchesEncoder(t *testing.T) {
	corpora := map[string]func(i int) store.TraceID{
		"hex": func(i int) store.TraceID { return store.TraceID(fmt.Sprintf("%064x", i)) },
		"odd": func(i int) store.TraceID { return store.TraceID(fmt.Sprintf("%04d%s", i, oddIDs[i%len(oddIDs)])) },
	}
	for name, mk := range corpora {
		for _, delta := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/delta=%v", name, delta), func(t *testing.T) {
				s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true})
				defer s.Shutdown(context.Background())
				queryCorpus(s, 3000, mk)
				if delta {
					s.ix.Remove(mk(3))
					s.ix.Add(mk(4), category.NewSet("write_on_end"))
					s.ix.Add(`0001"new`, category.NewSet("write_on_end"))
				}
				h := s.Handler()
				for _, q := range []string{"write_on_end", "NOT write_on_end", "write_on_end AND NOT read_on_start",
					"write_on_end OR read_on_start", "(write_on_end  OR read_on_start)\tNOT metadata_high_spike"} {
					all, err := s.ix.QueryIDs(q)
					if err != nil {
						t.Fatal(err)
					}
					n := len(all)
					for _, limit := range []int{-1, 0, 1, n - 1, n, n + 1} {
						target, ids := "/v1/query?q="+url.QueryEscape(q), all
						if limit >= 0 {
							target += fmt.Sprintf("&limit=%d", limit)
							ids = all[:min(limit, n)]
						}
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
						want := oracleQueryReply(t, queryReply{Query: q, Count: n, IDs: ids})
						if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
							t.Fatalf("GET %s: status %d\n%.400q\nwant\n%.400q", target, rec.Code, rec.Body.Bytes(), want)
						}
					}
				}
			})
		}
	}
}

// TestQuerySpans: a /v1/query trace gains exactly query.eval and
// query.encode under the root, carrying what was matched, returned and
// sent.
func TestQuerySpans(t *testing.T) {
	rec := reqtrace.NewRecorder(reqtrace.RecorderConfig{Capacity: 16})
	s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true, Flight: rec})
	defer s.Shutdown(context.Background())
	queryCorpus(s, 300, func(i int) store.TraceID { return store.TraceID(fmt.Sprintf("%064x", i)) })

	resp := httptest.NewRecorder()
	s.Handler().ServeHTTP(resp, httptest.NewRequest("GET", "/v1/query?q=write_on_end&limit=7", nil))
	tid, _, ok := reqtrace.ParseTraceparent(resp.Header().Get("Traceparent"))
	if resp.Code != 200 || !ok {
		t.Fatalf("status %d, traceparent %q", resp.Code, resp.Header().Get("Traceparent"))
	}
	det, ok := rec.Get(tid.String())
	if !ok {
		t.Fatal("query trace not in the recorder")
	}
	attrs := map[string]string{}
	var names []string
	root := det.SpanTree[len(det.SpanTree)-1] // spans are kept in the order they ended
	for _, sp := range det.SpanTree[:len(det.SpanTree)-1] {
		if sp.Parent != root.ID {
			t.Fatalf("span %s is not a child of the root %s", sp.Name, root.Name)
		}
		names = append(names, sp.Name)
		for _, a := range sp.Attrs {
			attrs[sp.Name+"."+a.Key] = a.Value
		}
	}
	if strings.Join(names, ",") != "query.eval,query.encode" {
		t.Fatalf("child spans %v, want query.eval then query.encode", names)
	}
	want := map[string]string{
		"query.eval.matches": "100", "query.eval.returned": "7",
		"query.encode.bytes": fmt.Sprint(resp.Body.Len()),
	}
	if fmt.Sprint(attrs) != fmt.Sprint(want) {
		t.Fatalf("span attrs %v, want %v", attrs, want)
	}
}

// TestQueryRefusedBeforeAnyWork: on a cluster entry node a bad limit or
// a missing q is answered 400 with no index evaluation and no scatter —
// the request's trace holds no span at all under the root, and no peer
// ever sees a query RPC.
func TestQueryRefusedBeforeAnyWork(t *testing.T) {
	tc := startTestCluster(t, 3)
	entry := tc.nodes[0]
	for _, target := range []string{"/v1/query?q=write_on_end&limit=abc", "/v1/query?q=write_on_end&limit=-1", "/v1/query?limit=5"} {
		resp, body := getBody(t, entry.http.URL+target)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d: %s", target, resp.StatusCode, body)
		}
		tid, _, _ := reqtrace.ParseTraceparent(resp.Header.Get("Traceparent"))
		var det reqtrace.Detail
		waitFor(t, "trace of "+target, func() bool {
			var ok bool
			det, ok = entry.srv.Flight().Get(tid.String())
			return ok
		})
		if len(det.SpanTree) != 1 {
			t.Fatalf("GET %s: trace has spans %+v beyond the root", target, det.SpanTree[1:])
		}
	}
	// The control: a good query from the same node does reach the peers.
	if resp, body := getBody(t, entry.http.URL+"/v1/query?q=write_on_end&limit=5"); resp.StatusCode != 200 {
		t.Fatalf("good query: status %d: %s", resp.StatusCode, body)
	}
	for i, nd := range tc.nodes[1:] {
		rpcs := func() (n int) {
			for _, sum := range nd.srv.Flight().Recent(0) {
				if sum.Method == "RPC" && sum.Route == "query" {
					n++
				}
			}
			return n
		}
		// A peer finishes an RPC's trace after it writes the reply, so the
		// good query's may land in its recorder after the entry answered.
		waitFor(t, fmt.Sprintf("peer %d's query RPC", i+1), func() bool { return rpcs() > 0 })
		if n := rpcs(); n != 1 {
			t.Fatalf("peer %d saw %d query RPCs, want only the good query's", i+1, n)
		}
	}
}
