package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"github.com/mosaic-hpc/mosaic"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/index"
	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/serve"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// The replays below call, in the order the real path does, the public
// functions a workload's requests pass through, each under a span. A
// layer metric is the median of its spans; a budget compares the sum of
// the layers with the same requests sent through the whole in-process.

const (
	replaySample = 300  // requests replayed per workload
	replayReads  = 2000 // store reads per access pattern
)

// seededSample picks n of the traces a workload sent.
func seededSample(seed int64, traces []trace, n int) []trace {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace, min(n, len(traces)))
	for i, k := range rng.Perm(len(traces))[:len(out)] {
		out[i] = traces[k]
	}
	return out
}

// replayWritePath sends sample through the ingest path's layers by hand:
// decode, content address, append (durably when sync), categorize with
// explain through the engine, store result and explanation, index. It
// returns the per-trace sum of the layers on the path, in microseconds.
func replayWritePath(ctx context.Context, t *tracer, rep *report, dir string, sample []trace, sync bool) (float64, error) {
	st, err := store.Open(dir, store.Options{Sync: sync})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	cfg := core.DefaultConfig().Normalized()
	fp := cfg.Fingerprint()
	exOpts := explain.Options{}.Normalized()
	ix := index.New()
	putTrace := "store.put_trace_nosync"
	if sync {
		putTrace = "store.put_trace"
	}
	var overhead []float64
	var jobs []*darshan.Job
	for i, tr := range sample {
		req := i + 1
		root := t.begin(req, 0, "ingest")
		var (
			job       *darshan.Job
			canonical []byte
			id        store.TraceID
			res       *core.Result
			run       *engine.Result
		)
		t.call(req, root, "darshan.decode", func() { job, err = darshan.UnmarshalBinary(tr.blob) })
		if err != nil {
			return 0, err
		}
		jobs = append(jobs, job)
		t.call(req, root, "store.tracekey", func() { id, canonical, err = store.TraceKey(job) })
		if err != nil {
			return 0, err
		}
		t.call(req, root, putTrace, func() { _, _, err = st.PutTraceBytesCtx(ctx, canonical) })
		if err != nil {
			return 0, err
		}
		// The serve worker runs the engine over the one job; the engine's
		// own cost is that run minus the categorization inside it, timed
		// on the same job right after.
		runID := t.begin(req, root, "engine.run_single")
		run, err = engine.Run(ctx, engine.Jobs([]*darshan.Job{job}), engine.Options{
			Config: cfg, Workers: 1, Executor: engine.Local{Workers: 1}, Explain: true, ExplainOptions: exOpts,
		})
		t.end(runID)
		if err != nil || len(run.Apps) != 1 {
			return 0, fmt.Errorf("engine over trace %s: %d results, %v", id, len(run.Apps), err)
		}
		res = run.Apps[0].Result
		t.call(req, root, "store.put_result", func() { err = st.PutResultCtx(ctx, id, fp, res) })
		if err != nil {
			return 0, err
		}
		t.call(req, root, "store.put_explanation", func() { _, err = st.PutExplanation(id, fp, run.Apps[0].Explanation) })
		if err != nil {
			return 0, err
		}
		t.call(req, root, "index.add", func() { ix.AddCtx(ctx, id, res.Categories) })
		t.end(root)

		// Off the path: parts of the calls above, timed on their own. The
		// encoding is inside store.tracekey, the categorization inside
		// engine.run_single.
		t.call(req, 0, "darshan.encode", func() { _, err = darshan.MarshalBinary(job) })
		if err != nil {
			return 0, err
		}
		catID := t.begin(req, 0, "core.categorize_explained")
		_, _, err = core.CategorizeExplained(job, cfg, exOpts)
		t.end(catID)
		if err != nil {
			return 0, err
		}
		overhead = append(overhead, t.us(runID)-t.us(catID))
	}
	n := float64(len(sample))
	layerMedian(rep, t, "darshan.decode_us", "darshan.decode")
	layerMedian(rep, t, "darshan.encode_us", "darshan.encode")
	layerMedian(rep, t, "store.tracekey_us", "store.tracekey")
	layerMedian(rep, t, putTrace+"_us", putTrace)
	layerMedian(rep, t, "core.categorize_explained_us", "core.categorize_explained")
	layerMedian(rep, t, "store.put_result_us", "store.put_result")
	layerMedian(rep, t, "store.put_explanation_us", "store.put_explanation")
	layerMedian(rep, t, "index.add_us", "index.add")
	rep.set("engine.run_single_overhead_us", median(overhead))
	cat, err := summarize("categorize spans", t.durations("core.categorize_explained"))
	if err != nil {
		return 0, err
	}
	rep.set("core.categorize_tail_us", cat.tail)
	rep.notef("core.categorize_tail_us is p%g of %d", cat.tailP*100, cat.n)

	var blobBytes int
	for _, tr := range sample {
		blobBytes += len(tr.blob)
	}
	rep.set("darshan.decode_mb_per_s", float64(blobBytes)/t.total("darshan.decode"))
	rep.set("darshan.decode_alloc_kb", allocKB(func() {
		for _, tr := range sample {
			_, _ = darshan.UnmarshalBinary(tr.blob) // decoded without error above
		}
	})/n)
	rep.set("core.categorize_alloc_kb", allocKB(func() {
		for _, job := range jobs {
			_, _, _ = core.CategorizeExplained(job, cfg, exOpts) // categorized without error above
		}
	})/n)

	sum := 0.0
	for _, name := range []string{"darshan.decode", "store.tracekey", putTrace, "engine.run_single", "store.put_result", "store.put_explanation", "index.add"} {
		sum += t.total(name)
	}
	return sum / n, nil
}

// inprocServer is a serve.Server driven through its handler, with no
// socket in between.
type inprocServer struct {
	st  *store.Store
	srv *serve.Server
	h   http.Handler
}

func newInprocServer(dir string, opts store.Options, cluster *ring.Config) (*inprocServer, error) {
	st, err := store.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Store: st, Workers: 2, QueueDepth: 256, Explain: true,
		NoBackfill: true, DisableAlerts: true, Cluster: cluster,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &inprocServer{st: st, srv: srv, h: srv.Handler()}, nil
}

func (s *inprocServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a replay's server holds nothing worth reporting a slow drain for
	s.st.Close()
}

// do sends one request through the handler and returns the status.
func (s *inprocServer) do(method, target, contentType string, body []byte) int {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	return rec.Code
}

// served waits until the server has nothing queued or in flight.
func (s *inprocServer) served() {
	for s.srv.PendingCount() > 0 {
		runtime.Gosched()
	}
}

// traceIngest reports the write path's layers on the traces the ingest
// workload sent, and how much of an in-process ingest-to-served request
// and of the real process's CPU no layer accounts for.
func traceIngest(ctx context.Context, e *env, rep *report, storeDir string, traces []trace) error {
	t := newTracer()
	sample := seededSample(e.seed, traces, replaySample)
	layerSum, err := replayWritePath(ctx, t, rep, filepath.Join(e.work, "replay-layers"), sample, true)
	if err != nil {
		return err
	}

	// The whole: the same traces through an in-process server on a
	// durable store, each timed from the POST until it is served.
	dir := filepath.Join(e.work, "replay-whole")
	s, err := newInprocServer(dir, store.Options{Sync: true}, nil)
	if err != nil {
		return err
	}
	for i, tr := range sample {
		req := len(sample) + i + 1
		root := t.begin(req, 0, "serve.ingest_to_served")
		var code int
		t.call(req, root, "serve.ingest_handler", func() { code = s.do("POST", "/v1/traces", "", tr.blob) })
		s.served()
		t.end(root)
		if code != http.StatusAccepted {
			s.close()
			return fmt.Errorf("in-process ingest of %s answered %d", tr.id, code)
		}
	}
	// Re-posts take the cache-hit path: no queue, no worker, so the
	// handler's allocations can be read off the runtime's counter.
	for i, tr := range sample {
		t.call(2*len(sample)+i+1, 0, "serve.reingest_handler", func() { s.do("POST", "/v1/traces", "", tr.blob) })
	}
	rep.set("serve.ingest_handler_alloc_kb", allocKB(func() {
		for _, tr := range sample {
			s.do("POST", "/v1/traces", "", tr.blob)
		}
	})/float64(len(sample)))
	s.close()

	// Restart cost, over the store the real server filled: the recovery
	// scan and the index rebuild, apart.
	var st *store.Store
	t.call(0, 0, "store.open", func() { st, err = store.Open(storeDir, store.Options{Sync: true}) })
	if err != nil {
		return err
	}
	t.call(0, 0, "index.rebuild", func() { _, err = index.New().Rebuild(st, core.DefaultConfig().Normalized().Fingerprint()) })
	st.Close()
	if err != nil {
		return err
	}
	rep.set("store.open_s", t.total("store.open")/1e6)
	rep.set("index.rebuild_s", t.total("index.rebuild")/1e6)
	rep.notef("ready: store.open %.3f s + index.rebuild %.3f s, against ready_s %.3f s end to end",
		rep.values["store.open_s"], rep.values["index.rebuild_s"], rep.values["ready_s"])

	handler := layerMedian(rep, t, "serve.ingest_handler_us", "serve.ingest_handler")
	layerMedian(rep, t, "serve.reingest_handler_us", "serve.reingest_handler")
	rep.set("serve.ingest_edge_self_us", handler-rep.values["darshan.decode_us"]-rep.values["store.tracekey_us"]-rep.values["store.put_trace_us"])
	whole := t.total("serve.ingest_to_served") / float64(len(sample))
	rep.set("serve.unattributed_share", 1-layerSum/whole)
	rep.set("serve.process_overhead_share", 1-layerSum/1000/rep.values["cpu_ms_per_op"])
	rep.notef("serve.ingest_handler_alloc_kb is measured on re-posted traces (the cache-hit path has no concurrent worker)")
	n := float64(len(sample))
	printBudget(rep, fmt.Sprintf("ingest to served, mean over %d replayed traces", len(sample)), "us per trace", []budgetRow{
		{"darshan.decode", t.total("darshan.decode") / n},
		{"store.tracekey (encode + hash)", t.total("store.tracekey") / n},
		{"store.put_trace (append + fsync)", t.total("store.put_trace") / n},
		{"engine.run_single (categorize in it)", t.total("engine.run_single") / n},
		{"store.put_result", t.total("store.put_result") / n},
		{"store.put_explanation", t.total("store.put_explanation") / n},
		{"index.add", t.total("index.add") / n},
	}, whole)
	rep.notef("process: %.3f ms CPU per operation end to end, %.3f ms in the layers above", rep.values["cpu_ms_per_op"], layerSum/1000)
	path, err := t.writeChrome(e, "ingest")
	rep.notef("%d spans written to %s", len(t.spans), path)
	return err
}

// traceQuery reports the read path's layers over the store the query
// workload served: opening it, rebuilding the index, reading results
// under two access patterns, and each query class in the index and in
// the in-process handler.
func traceQuery(ctx context.Context, e *env, rep *report, storeDir string, rs *resultSet, byKind [][]float64) error {
	t := newTracer()
	cfg := core.DefaultConfig().Normalized()
	fp := cfg.Fingerprint()
	opts := store.Options{CacheBytes: queryCacheMB << 20}
	var st *store.Store
	var err error
	t.call(1, 0, "store.open", func() { st, err = store.Open(storeDir, opts) })
	if err != nil {
		return err
	}
	ix := index.New()
	t.call(1, 0, "index.rebuild", func() { _, err = ix.Rebuild(st, fp) })
	if err != nil {
		st.Close()
		return err
	}
	rep.set("store.open_s", t.total("store.open")/1e6)
	rep.set("index.rebuild_s", t.total("index.rebuild")/1e6)

	req := 1
	read := func(name string, k int) error {
		req++
		var ok bool
		t.call(req, 0, name, func() { _, ok, err = st.GetResult(rs.ids[k], fp) })
		if err != nil || !ok {
			return fmt.Errorf("reading result %s: found=%v, %v", rs.ids[k], ok, err)
		}
		return nil
	}
	rng := rand.New(rand.NewSource(e.seed))
	for _, k := range zipfStream(e.seed, replayReads, queryResults) {
		if err := read("store.get_result_zipf", k); err != nil {
			st.Close()
			return err
		}
	}
	for i := 0; i < replayReads; i++ {
		if err := read("store.get_result_uniform", rng.Intn(queryResults)); err != nil {
			st.Close()
			return err
		}
	}
	layerMedian(rep, t, "store.get_result_zipf_us", "store.get_result_zipf")
	layerMedian(rep, t, "store.get_result_uniform_us", "store.get_result_uniform")

	for _, q := range queryMix {
		if q.e == nil {
			continue
		}
		text := q.e.String()
		var ids []string
		for i := 0; i < replaySample; i++ {
			req++
			t.call(req, 0, "index."+q.name, func() { ids, err = ix.QueryIDs(text) })
			if err != nil {
				st.Close()
				return err
			}
		}
		layerMedian(rep, t, "index."+q.name+"_us", "index."+q.name)
		if q.name == "not_heavy" {
			// Every match is materialized before the limit cuts the answer.
			rep.set("index.ids_examined_per_returned", float64(len(ids))/float64(min(len(ids), q.limit)))
			rep.set("index.not_heavy_alloc_kb", allocKB(func() {
				for i := 0; i < replaySample; i++ {
					_, _ = ix.QueryIDs(text) // evaluated without error above
				}
			})/replaySample)
		}
	}
	for i := 0; i < replaySample; i++ {
		req++
		t.call(req, 0, "index.axis_counts", func() { ix.AxisCounts() })
	}
	layerMedian(rep, t, "index.axis_counts_us", "index.axis_counts")
	st.Close()

	// The handlers, in-process: what the server adds around the layers.
	s, err := newInprocServer(storeDir, opts, nil)
	if err != nil {
		return err
	}
	defer s.close()
	heavy := queryMix[3]
	target := queryURL("", heavy)
	for i := 0; i < replaySample; i++ {
		req++
		var code int
		t.call(req, 0, "serve.query_handler", func() { code = s.do("GET", target, "", nil) })
		if code != http.StatusOK {
			return fmt.Errorf("in-process %s answered %d", target, code)
		}
	}
	for _, k := range zipfStream(e.seed, replayReads, queryResults) {
		req++
		var code int
		t.call(req, 0, "serve.result_handler", func() { code = s.do("GET", "/v1/results/"+string(rs.ids[k]), "", nil) })
		if code != http.StatusOK {
			return fmt.Errorf("in-process result read answered %d", code)
		}
	}
	layerMedian(rep, t, "serve.query_handler_us", "serve.query_handler")
	resultHandler := layerMedian(rep, t, "serve.result_handler_us", "serve.result_handler")
	resultE2E, err := summarize("result reads", byKind[0])
	if err != nil {
		return err
	}
	rep.set("serve.wire_overhead_us", resultE2E.p50*1000-resultHandler)
	rep.notef("budget: a result read is %.1f us end to end at p50: %.1f us in the in-process handler, %.1f us of it the store read, the rest wire and client",
		resultE2E.p50*1000, resultHandler, rep.values["store.get_result_zipf_us"])
	rep.notef("budget: a %s query is %.1f us in the in-process handler, %.1f us of it index evaluation",
		heavy.name, rep.values["serve.query_handler_us"], rep.values["index.not_heavy_us"])
	rep.notef("ready: store.open %.3f s + index.rebuild %.3f s, against ready_s %.3f s end to end",
		rep.values["store.open_s"], rep.values["index.rebuild_s"], rep.values["ready_s"])
	path, err := t.writeChrome(e, "query")
	rep.notef("%d spans written to %s", len(t.spans), path)
	return err
}

// traceCorpus reports the batch path's layers over the corpus directory:
// reading a file, the funnel, categorizing the survivors; then the same
// directory through the in-process pipeline, to see what the engine's
// parallelism and the CLI around it add.
func traceCorpus(ctx context.Context, e *env, rep *report, dir string, passS float64) error {
	t := newTracer()
	paths, err := darshan.ListCorpus(dir)
	if err != nil {
		return err
	}
	pre := core.NewPreprocessor()
	for i, p := range paths {
		req := i + 1
		root := t.begin(req, 0, "corpus.trace")
		var job *darshan.Job
		var rerr error
		t.call(req, root, "darshan.readfile", func() { job, rerr = darshan.ReadFile(p) })
		t.call(req, root, "core.preprocess", func() { pre.Add(job, rerr) })
		t.end(root)
	}
	cfg := core.DefaultConfig().Normalized()
	groups := pre.Groups()
	for i, g := range groups {
		req := len(paths) + i + 1
		t.call(req, 0, "core.categorize", func() { _, err = core.Categorize(g.Heaviest, cfg) })
		if err != nil {
			return err
		}
	}
	layerMedian(rep, t, "darshan.readfile_us", "darshan.readfile")
	layerMedian(rep, t, "core.preprocess_us", "core.preprocess")
	layerMedian(rep, t, "core.categorize_us", "core.categorize")

	var walls []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := mosaic.AnalyzeCorpusContext(ctx, dir, mosaic.Options{Workers: e.nproc}); err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	inproc := median(walls)
	n := float64(len(paths))
	serial := (t.total("darshan.readfile") + t.total("core.preprocess") + t.total("core.categorize")) / 1e6
	rep.set("engine.corpus_inproc_traces_per_s", n/inproc)
	rep.set("engine.parallel_efficiency", serial/(float64(e.nproc)*inproc))
	rep.set("engine.cli_overhead_share", 1-inproc/passS)
	printBudget(rep, fmt.Sprintf("one pass over %d files, %d of them categorized", len(paths), len(groups)), "ms, serial", []budgetRow{
		{"darshan.readfile", t.total("darshan.readfile") / 1000},
		{"core.preprocess", t.total("core.preprocess") / 1000},
		{"core.categorize", t.total("core.categorize") / 1000},
	}, float64(e.nproc)*inproc*1000)
	rep.notef("the whole is %d workers x %.1f ms in-process wall; the CLI pass takes %.1f ms", e.nproc, inproc*1000, passS*1000)
	path, err := t.writeChrome(e, "corpus")
	rep.notef("%d spans written to %s", len(t.spans), path)
	return err
}

// traceCluster reports the write path's layers on the traces the cluster
// workload sent (no fsync, as there), and the ring's own calls timed on
// an in-process three-node cluster.
func traceCluster(ctx context.Context, e *env, rep *report, traces []trace) error {
	t := newTracer()
	sample := seededSample(e.seed, traces, replaySample)
	if _, err := replayWritePath(ctx, t, rep, filepath.Join(e.work, "replay-layers"), sample, false); err != nil {
		return err
	}

	members := make([]ring.Node, len(clusterNodeIDs))
	listeners := make([]net.Listener, len(clusterNodeIDs))
	for i, id := range clusterNodeIDs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners[i] = l
		members[i] = ring.Node{ID: id, Addr: l.Addr().String()}
	}
	nodes := make([]*inprocServer, len(members))
	for i, m := range members {
		s, err := newInprocServer(filepath.Join(e.work, "replay-node-"+m.ID), store.Options{}, &ring.Config{
			Self: m.ID, Nodes: members, Replication: 2, ReplicaAck: 1,
		})
		if err != nil {
			return err
		}
		defer s.close()
		nodes[i] = s
		go func(l net.Listener) { _ = s.srv.ServeCluster(l) }(listeners[i]) // returns when close shuts the node down
	}
	entry := nodes[0].srv.Cluster()
	self := entry.Self().ID
	// Forward the traces another node owns to their owner, one per call,
	// as the entry node does for each owner's share of a batch; replicate
	// the ones the entry node owns to their follower.
	for i, tr := range sample {
		req := len(sample) + i + 1
		replicas := entry.Table().Replicas(string(tr.id))
		ids, blobs := []string{string(tr.id)}, [][]byte{tr.blob}
		if owner := replicas[0].ID; owner != self {
			var err error
			t.call(req, 0, "ring.forward_ingest", func() { _, err = entry.ForwardIngest(ctx, "replay", owner, ids, blobs) })
			if err != nil {
				return err
			}
			continue
		}
		var err error
		t.call(req, 0, "ring.replicate", func() { err = entry.Replicate(ctx, "replay", replicas[1].ID, ids, blobs) })
		if err != nil {
			return err
		}
	}
	for _, s := range nodes {
		s.served()
	}
	q := clusterQueries[2].e.String()
	var lists [][]string
	for i := 0; i < replaySample; i++ {
		req := 2*len(sample) + i + 1
		var errs map[string]error
		t.call(req, 0, "ring.scatter_query", func() { lists, errs = entry.ScatterQuery(ctx, "replay", q) })
		if len(errs) > 0 {
			return fmt.Errorf("in-process scatter query: %v", errs)
		}
	}
	local, err := nodes[0].srv.Index().QueryIDs(q)
	if err != nil {
		return err
	}
	lists = append(lists, local)
	var merged []string
	for i := 0; i < replaySample; i++ {
		t.call(3*len(sample)+i+1, 0, "ring.merge", func() { merged = index.MergeSortedInto(merged[:0], lists...) })
	}
	layerMedian(rep, t, "ring.forward_ingest_us", "ring.forward_ingest")
	layerMedian(rep, t, "ring.replicate_us", "ring.replicate")
	layerMedian(rep, t, "ring.scatter_query_us", "ring.scatter_query")
	layerMedian(rep, t, "ring.merge_us", "ring.merge")
	rep.notef("budget: a batch ack is %.1f ms end to end at p50; one forwarded trace costs %.1f us in-process, one replicated trace %.1f us",
		rep.values["op_p50_ms"], rep.values["ring.forward_ingest_us"], rep.values["ring.replicate_us"])
	rep.notef("budget: a scatter query is %.1f us end to end at p50: %.1f us in the in-process scatter, %.1f us merging %d lists",
		rep.values["heavy_p50_ms"]*1000, rep.values["ring.scatter_query_us"], rep.values["ring.merge_us"], len(lists))
	path, err := t.writeChrome(e, "cluster_mixed")
	rep.notef("%d spans written to %s", len(t.spans), path)
	return err
}
