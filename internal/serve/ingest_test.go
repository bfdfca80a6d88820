package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// FuzzBatchFrames holds the upload frame reader to ring.SplitBlobs over
// the same bytes (AppendBatchFrame is ring.AppendBlob): with the item
// and size caps applied the two accept and refuse the same bodies and
// agree on every blob, whether the body's length was declared or not.
func FuzzBatchFrames(f *testing.F) {
	frame := func(blobs ...[]byte) []byte {
		var body []byte
		for _, b := range blobs {
			body = AppendBatchFrame(body, b)
		}
		return body
	}
	two := frame([]byte("ab"), []byte("c"))
	f.Add(two)
	f.Add(two[:len(two)-3])                     // truncated length
	f.Add(two[:len(two)-1])                     // truncated blob
	f.Add(frame(nil, []byte("x"), nil))         // zero-length frames
	f.Add(frame(make([][]byte, 1025)...))       // item 1 025
	f.Add(frame(bytes.Repeat([]byte{7}, 200)))  // over the small size cap
	f.Add(frame(make([]byte, 3*frameChunk+17))) // grown in steps when undeclared
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2}) // a length nothing backs
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, maxItem := range []int64{64, 1 << 20} {
			want, err := ring.SplitBlobs(body, maxBatchItems)
			for _, b := range want {
				if int64(len(b)) > maxItem {
					err = fmt.Errorf("a blob of %d bytes", len(b))
				}
			}
			readers := map[string]io.Reader{
				"chunked":  bytes.NewReader(body),
				"declared": &io.LimitedReader{R: bytes.NewReader(body), N: int64(len(body))},
			}
			for how, r := range readers {
				ups, rerr := readBatchFrames(r, maxItem)
				if (rerr == nil) != (err == nil) {
					t.Fatalf("%s, cap %d: reader says %v, SplitBlobs says %v", how, maxItem, rerr, err)
				}
				if rerr != nil {
					continue
				}
				if len(ups) != len(want) {
					t.Fatalf("%s: %d uploads for %d blobs", how, len(ups), len(want))
				}
				for i, up := range ups {
					if !bytes.Equal(up.data, want[i]) || up.name != fmt.Sprintf("frame-%d", i) {
						t.Fatalf("%s: upload %d = %q (%d bytes), want %d bytes", how, i, up.name, len(up.data), len(want[i]))
					}
				}
			}
		}
	})
}

// TestBatchFrameAllocationFollowsBody: a frame's length prefix alone
// buys no memory. Four bytes declaring 200 MiB, then one declaring it
// ahead of 100 KiB, are each an explicit short-body error, and reading
// them allocates in proportion to what arrived — every generation of a
// doubling buffer counted — not to what was declared.
func TestBatchFrameAllocationFollowsBody(t *testing.T) {
	const declared = 200 << 20
	hdr := binary.LittleEndian.AppendUint32(nil, declared)
	for _, sent := range []int{0, 100 << 10} {
		body := append(append([]byte(nil), hdr...), make([]byte, sent)...)
		want := fmt.Sprintf("frame 0: want %d bytes, body holds %d", declared, sent)
		readers := map[string]func() io.Reader{
			"chunked":  func() io.Reader { return bytes.NewReader(body) },
			"declared": func() io.Reader { return &io.LimitedReader{R: bytes.NewReader(body), N: int64(len(body))} },
		}
		for how, open := range readers {
			least := ^uint64(0)
			for run := 0; run < 3; run++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				ups, err := readBatchFrames(open(), 256<<20)
				runtime.ReadMemStats(&after)
				if err == nil || err.Error() != want || ups != nil {
					t.Fatalf("%s, %d bytes sent: %d uploads, error %v; want error %q", how, sent, len(ups), err, want)
				}
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if limit := uint64(4*sent + 2*frameChunk); least > limit {
				t.Errorf("%s, %d bytes sent: reading allocated %d bytes, want at most %d", how, sent, least, limit)
			}
		}
	}
}

// holdWorkers parks every categorization on the given servers until the
// returned func is called, so a request's statuses do not depend on how
// fast a worker is. The servers must be idle.
func holdWorkers(srvs ...*Server) (release func()) {
	exec := &blockingExec{release: make(chan struct{}), inner: engine.Local{Workers: 1}}
	for _, s := range srvs {
		s.exec = exec
	}
	return func() { close(exec.release) }
}

// traceSpan is one span of a recorded request trace. Every trace draws
// its span IDs from its own random base, so id and parent name one span
// across all the recorders of a ring.
type traceSpan struct {
	name, id, parent string
	args             map[string]string
}

// spansOf returns every span the recorders hold under one trace ID —
// on a ring that is the entry node's request trace plus each peer's
// inbound RPC traces.
func spansOf(t *testing.T, tid string, recs ...*reqtrace.Recorder) []traceSpan {
	t.Helper()
	var out []traceSpan
	for _, rec := range recs {
		d, ok := rec.Get(tid)
		if !ok {
			continue
		}
		for _, sp := range d.SpanTree {
			args := make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				args[a.Key] = a.Value
			}
			out = append(out, traceSpan{name: sp.Name, id: sp.ID, parent: sp.Parent, args: args})
		}
	}
	return out
}

// TestIngestOnePathAcrossModes sends one request — eight items, one of
// them unreadable, one repeating another, one already categorized — as
// multipart to /v1/traces, as frames to /v1/traces:batch and as frames
// to the entry node of a three-node ring. There is one write path, so
// all three answer the same (name, id, status) sequence and leave the
// same trace shape: one ingest.decode per node the uploads reached (the
// entry, and on the ring each owner of a forwarded share), one item span
// per readable item, and each queued item's queue.wait and
// worker.categorize under its own item span, on whichever node took it.
func TestIngestOnePathAcrossModes(t *testing.T) {
	const cachedSeed = 3004
	blobs := [][]byte{
		encodeJob(t, testJob(3000)),
		encodeJob(t, testJob(3001)),
		[]byte("MOSDgarbage"),
		encodeJob(t, testJob(3000)), // repeats item 0
		encodeJob(t, testJob(cachedSeed)),
		encodeJob(t, testJob(3005)),
		encodeJob(t, testJob(3006)),
		encodeJob(t, testJob(3007)),
	}
	wantStatus := []string{StatusAccepted, StatusAccepted, StatusUnreadable, StatusPending,
		StatusCached, StatusAccepted, StatusAccepted, StatusAccepted}
	names := make([]string, len(blobs))
	for i := range names {
		names[i] = fmt.Sprintf("frame-%d", i) // what the frame reader calls them
	}

	type mode struct {
		name string
		url  string
		srvs []*Server
		post func(url string) (*http.Response, error)
	}
	standalone := func() (string, []*Server) {
		s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 64, NoBackfill: true})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Shutdown(context.Background())
		})
		return ts.URL, []*Server{s}
	}
	postFrames := func(url string) (*http.Response, error) {
		return http.Post(url+"/v1/traces:batch", BatchContentType, batchBody(blobs...))
	}
	modes := []mode{{name: "multipart /v1/traces", post: func(url string) (*http.Response, error) {
		ct, body := multipartBody(t, names, blobs)
		return http.Post(url+"/v1/traces", ct, body)
	}}, {name: "frames /v1/traces:batch", post: postFrames}, {name: "ring entry node", post: postFrames}}
	modes[0].url, modes[0].srvs = standalone()
	modes[1].url, modes[1].srvs = standalone()
	tc := startTestCluster(t, 3)
	modes[2].url = tc.nodes[0].http.URL
	for _, nd := range tc.nodes {
		modes[2].srvs = append(modes[2].srvs, nd.srv)
	}

	type triple struct {
		Name   string
		ID     store.TraceID
		Status string
	}
	var first []triple
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			// The cached item: categorized before the request arrives.
			if resp, body := postBlob(t, m.url, blobs[4]); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("pre-ingest: status %d body %s", resp.StatusCode, body)
			}
			waitResult(t, m.url, store.HashBytes(blobs[4]))
			waitFor(t, "idle workers", func() bool {
				for _, s := range m.srvs {
					if s.PendingCount() > 0 {
						return false
					}
				}
				return true
			})
			release := holdWorkers(m.srvs...)
			resp, err := m.post(m.url)
			if err != nil {
				t.Fatal(err)
			}
			var ir ingestResponse
			err = json.NewDecoder(resp.Body).Decode(&ir)
			resp.Body.Close()
			release()
			if err != nil || resp.StatusCode != http.StatusAccepted {
				t.Fatalf("status %d, decoding the reply: %v", resp.StatusCode, err)
			}
			var got []triple
			for _, it := range ir.Results {
				got = append(got, triple{it.Name, it.ID, it.Status})
			}
			if len(got) != len(blobs) {
				t.Fatalf("%d items for %d uploads: %+v", len(got), len(blobs), got)
			}
			for i, g := range got {
				if g.Name != names[i] || g.Status != wantStatus[i] {
					t.Errorf("item %d = %+v, want name %s status %s", i, g, names[i], wantStatus[i])
				}
			}
			if first == nil {
				first = got
			} else if !reflect.DeepEqual(got, first) {
				t.Errorf("answered %+v\nthe first mode answered %+v", got, first)
			}

			tid, _, ok := reqtrace.ParseTraceparent(resp.Header.Get("Traceparent"))
			if !ok {
				t.Fatalf("no traceparent on the reply: %q", resp.Header.Get("Traceparent"))
			}
			var recs []*reqtrace.Recorder
			for _, s := range m.srvs {
				recs = append(recs, s.Flight())
			}
			// A trace reaches its recorder once its last queued item is done.
			var spans []traceSpan
			count := func(pred func(traceSpan) bool) (n int) {
				for _, sp := range spans {
					if pred(sp) {
						n++
					}
				}
				return n
			}
			accepted := 0
			for _, st := range wantStatus {
				if st == StatusAccepted {
					accepted++
				}
			}
			waitFor(t, "every queued item's worker span", func() bool {
				spans = spansOf(t, tid.String(), recs...)
				return count(func(sp traceSpan) bool { return sp.name == "worker.categorize" }) == accepted
			})
			// One walk per node the uploads reached: the entry's, and each
			// owner's of the share forwarded to it.
			owners := count(func(sp traceSpan) bool { return sp.name == "RPC ingest" })
			if n := count(func(sp traceSpan) bool { return sp.name == "ingest.decode" }); n != 1+owners {
				t.Errorf("%d ingest.decode spans, want 1 and one per forwarded share (%d)", n, owners)
			}
			items := map[string]traceSpan{} // by span ID
			for _, sp := range spans {
				if strings.HasPrefix(sp.name, "item:") {
					items[sp.id] = sp
				}
			}
			if len(items) != len(blobs)-1 {
				t.Errorf("%d item spans, want one per readable item (%d)", len(items), len(blobs)-1)
			}
			for i, g := range got {
				if g.Status != StatusAccepted {
					continue
				}
				for _, name := range []string{"queue.wait", "worker.categorize"} {
					n := count(func(sp traceSpan) bool {
						it, ok := items[sp.parent]
						return sp.name == name && ok && it.args["id"] == string(g.ID) && it.args["status"] == StatusAccepted
					})
					if n != 1 {
						t.Errorf("item %d (%s): %d %s spans under its item span, want 1", i, g.ID, n, name)
					}
				}
			}
		})
	}
}

// TestMultipartIngestIsOneCommit: a multipart body is one group on
// either route — four parts on a Sync store cost one group-committed
// fsync, not four.
func TestMultipartIngestIsOneCommit(t *testing.T) {
	for _, route := range []string{"/v1/traces", "/v1/traces:batch"} {
		st, err := store.Open(t.TempDir(), store.Options{Sync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		// Parked workers commit no outcome while the fsyncs are counted.
		exec := &blockingExec{release: make(chan struct{}), inner: engine.Local{Workers: 1}}
		s, _ := newTestServer(t, Config{Store: st, Workers: 1, QueueDepth: 8, NoBackfill: true, Executor: exec})
		ts := httptest.NewServer(s.Handler())
		var names []string
		var blobs [][]byte
		for i := 0; i < 4; i++ {
			names = append(names, fmt.Sprintf("part-%d", i))
			blobs = append(blobs, encodeJob(t, testJob(3100+i)))
		}
		before := st.Stats().GroupSyncs
		ct, body := multipartBody(t, names, blobs)
		resp, err := http.Post(ts.URL+route, ct, body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		syncs := st.Stats().GroupSyncs - before
		close(exec.release)
		ts.Close()
		s.Shutdown(context.Background())
		if resp.StatusCode != http.StatusAccepted || syncs != 1 {
			t.Errorf("%s: status %d, %d group syncs for 4 parts, want 202 and 1", route, resp.StatusCode, syncs)
		}
	}
}

// TestForwardRejectsUnknownPeerStatus: a peer's ingest reply is checked
// where it is taken. An item status this node does not know is a failed
// forward — the group re-routes, here to a local sloppy write — not a
// value that reaches the response tally.
func TestForwardRejectsUnknownPeerStatus(t *testing.T) {
	fake := ring.NewServer(ring.ServerOptions{})
	fake.Handle(ring.OpIngest, "ingest", func(context.Context, *ring.Frame) ([]byte, error) {
		return []byte(`{"items":[{"status":"bogus"}]}`), nil
	})
	fake.Handle(ring.OpReplicate, "replicate", func(context.Context, *ring.Frame) ([]byte, error) {
		return nil, nil
	})
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
		Replication: 2, ReplicaAck: 1, RPCTimeout: 2 * time.Second,
	}
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 8, NoBackfill: true, Cluster: &rcfg})
	go s.ServeCluster(sl) //nolint:errcheck
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A trace the fake peer owns: the entry node forwards it.
	var blob []byte
	var id store.TraceID
	for seed := 3200; ; seed++ {
		blob = encodeJob(t, testJob(seed))
		id = store.HashBytes(blob)
		if s.Cluster().Table().Replicas(string(id))[0].ID == "fake" {
			break
		}
	}
	resp, body := postBlob(t, ts.URL, blob)
	if resp.StatusCode != http.StatusAccepted || !strings.Contains(string(body), `"accepted"`) {
		t.Fatalf("ingest through a peer answering a bogus status: status %d body %s", resp.StatusCode, body)
	}
	if !s.st.HasTrace(id) {
		t.Fatal("the re-routed trace was acknowledged but is not stored on the entry node")
	}
	waitResult(t, ts.URL, id)
}
