package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/serve"
)

// The ingest workload is the serve tier's write path: one mosaic-serve
// with durable acks (-sync: every ack waits for a group-committed fsync
// covering it), the default two workers and a queue of 256. Every trace
// is decoded, hashed, appended, fsynced, categorized with explain on,
// and indexed; ring is bypassed and index does little.
//
// Phase A is an open loop of single-trace POSTs, every fifth one a
// re-post of a trace sent at least a second earlier (the cache-hit
// path). Phase B is an open loop of 16-trace batches at half the lowest
// rate the server has been seen to sustain. Then the server is killed with
// SIGKILL and restarted on the same directory, and everything
// acknowledged must be there. A traced run adds phase C before the
// kill: a closed loop that saturates the server. Its rate is a per-layer
// number because it is not steady: under overload the queue fills, the
// live heap grows with it, and the same binary settles at anything from
// 330 to 650 traces/s from one run to the next.

const (
	ingestRate      = 100.0 // phase A: single-trace requests per second
	ingestShareA    = 0.5   // of the run length
	ingestBatchRate = 10.0  // phase B: batches per second, 160 traces/s: half of the lowest saturated rate seen
	ingestShareB    = 0.4
	saturatePerSec  = 80 // phase C: traces per second of run length
	batchSize       = 16
	resultSample    = 200
	restarts        = 11 // kill-and-restart cycles of a traced run; the median time to ready is reported
)

// ingestInputs is the workload's generated input.
type ingestInputs struct {
	sched  []ingestReq
	traces []trace // phase A's fresh traces, then phase B's, then phase C's
	freshA int
	nB     int
	check  []int // traces whose stored results are compared with an in-process categorization
}

func makeIngestInputs(e *env) (*ingestInputs, error) {
	in := &ingestInputs{sched: ingestSchedule(e.seed, ingestRate, e.dur(ingestShareA))}
	for _, r := range in.sched {
		if !r.repost {
			in.freshA++
		}
	}
	in.nB = int(ingestBatchRate*e.dur(ingestShareB).Seconds()) * batchSize
	nC := 0
	if e.trace {
		nC = int(saturatePerSec*e.seconds) / batchSize * batchSize
	}
	runs, err := newPopulation().sample(e.seed, in.freshA+in.nB+nC, true, e.nproc)
	if err != nil {
		return nil, err
	}
	if in.traces, err = encodeTraces(runs, e.nproc); err != nil {
		return nil, err
	}
	evenBatches(in.traces[in.freshA:in.freshA+in.nB], batchSize)
	evenBatches(in.traces[in.freshA+in.nB:], batchSize)
	in.check = keepJobs(in.traces, e.seed, resultSample)
	return in, nil
}

// server is one mosaic-serve process and how to reach it.
type server struct {
	p    *proc
	addr string
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// startServe starts mosaic-serve on a free port and waits until it
// answers /healthz; ready is the time from exec to that answer.
func startServe(ctx context.Context, e *env, c *clientSet, name string, args ...string) (*server, time.Duration, error) {
	addrs, err := freeAddrs(1)
	if err != nil {
		return nil, 0, err
	}
	args = append([]string{"-addr", addrs[0], "-log-level", "warn"}, args...)
	start := time.Now()
	p, err := e.start(ctx, name, e.mosaicServe(), nil, args...)
	if err != nil {
		return nil, 0, err
	}
	ready, err := waitHealthy(ctx, c.probe, p, addrs[0], start)
	return &server{p: p, addr: addrs[0]}, ready, err
}

// restartCycles is how often a workload kills and restarts its server:
// a traced run times restarts of them, an end-to-end run needs the one
// its check after a crash depends on.
func (e *env) restartCycles() int {
	if e.trace {
		return restarts
	}
	return 1
}

func runIngest(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	storeDir := filepath.Join(e.work, "store")
	in, err := timeSetup(e, rep, filepath.Join(e.work, "inputs"), func() (*ingestInputs, error) { return makeIngestInputs(e) })
	if err != nil {
		return nil, err
	}
	var userBytes int64
	for _, t := range in.traces {
		userBytes += int64(len(t.blob))
	}

	cs := newClientSet(e.nproc)
	serveArgs := []string{"-store", storeDir, "-sync", "-workers", "2", "-queue", "256"}
	srv, _, err := startServe(ctx, e, cs, "serve", serveArgs...)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.p.cpuNow()
	if err != nil {
		return nil, err
	}
	self0, wall0 := selfCPU(), time.Now()

	// Phase A: open loop of single traces, e.nproc connections.
	shotsA := openLoop(ctx, time.Now(), dueTimes(in.sched), e.nproc, func(i int) error {
		t := in.traces[in.sched[i].trace]
		r, code, err := postIngest(ctx, cs.load, srv.url("/v1/traces"), "application/octet-stream", t.blob)
		if err != nil {
			return err
		}
		if code == http.StatusTooManyRequests || len(r.Results) != 1 {
			return fmt.Errorf("single ingest answered %d with %d items", code, len(r.Results))
		}
		if it := r.Results[0]; it.ID != t.id || !acked(it.Status) {
			return fmt.Errorf("trace %s acknowledged as %s %q: %s", t.id, it.ID, it.Status, it.Error)
		}
		return nil
	})
	acks, latesA := rep.tally("phase A", shotsA)
	slowA, err := e.yard.slowdown(wall0, time.Now())
	if err != nil {
		return nil, err
	}
	if _, err := waitDrained(ctx, cs, srv); err != nil {
		return nil, err
	}

	// Phase B: open loop of batches, from an empty queue until nothing
	// is pending.
	startB := time.Now()
	shotsB := openLoop(ctx, startB, evenSchedule(ingestBatchRate, e.dur(ingestShareB)), e.nproc, func(i int) error {
		return postBatch(ctx, cs.load, srv.url("/v1/traces:batch"), in.traces[in.freshA+i*batchSize:][:batchSize])
	})
	stats, err := waitDrained(ctx, cs, srv)
	if err != nil {
		return nil, err
	}
	wallB := time.Since(startB)
	slowAB, err := e.yard.slowdown(wall0, time.Now())
	if err != nil {
		return nil, err
	}
	batches, latesB := rep.tally("phase B", shotsB)
	cpu1, err := srv.p.cpuNow()
	if err != nil {
		return nil, err
	}

	ack, err := summarize("phase A acks", acks)
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, srv.p.stderrTail())
	}
	batch, err := summarize("phase B batch acks", batches)
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, srv.p.stderrTail())
	}
	if err := rep.checkLateness(append(latesA, latesB...)); err != nil {
		return nil, err
	}
	rep.timed("op_p50_ms", ack.p50, slowA)
	rep.set("serve.batch_ack_p50_ms", batch.p50)
	// The rate is the schedule's as long as the server keeps up, so it is
	// not a timing of the server and is left as measured.
	rep.set("work_per_s", float64(len(batches)*batchSize)/wallB.Seconds())
	rep.timed("cpu_ms_per_op", ms(cpu1-cpu0)/float64(len(acks)+len(batches)*batchSize), slowAB)
	rep.set("loadgen.slowdown", slowAB)
	rep.set("serve.ack_tail_ms", ack.tail)
	rep.set("loadgen.cpu_share", float64(selfCPU()-self0)/float64(time.Since(wall0))/float64(e.nproc))
	rep.notef("op_p50_ms: %d acks at %.0f req/s over %d connections; tail is p%g = %.3f ms", ack.n, ingestRate, e.nproc, ack.tailP*100, ack.tail)
	rep.notef("serve.batch_ack_p50_ms: %d acks of %d-trace batches at %.0f batches/s; tail is p%g = %.3f ms", batch.n, batchSize, ingestBatchRate, batch.tailP*100, batch.tail)
	rep.notef("work_per_s: %d traces, %.2f s from the first batch to pending == 0", len(batches)*batchSize, wallB.Seconds())
	sent := in.freshA + in.nB
	if stats.Store.GroupSyncs > 0 {
		rep.set("store.fsyncs_per_trace", float64(stats.Store.GroupSyncs)/float64(sent))
		rep.set("store.frames_per_fsync", float64(stats.Store.SyncedFrames)/float64(stats.Store.GroupSyncs))
	}
	if e.trace {
		if err := saturate(ctx, e, rep, cs, srv, in.traces, sent); err != nil {
			return nil, err
		}
		if stats, err = waitDrained(ctx, cs, srv); err != nil {
			return nil, err
		}
	}
	rep.set("store.disk_bytes_per_user_byte", float64(stats.Store.DiskBytes)/float64(userBytes))

	rss, err := srv.p.peakRSS()
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", rss)

	// kill -9, restart on the same directory: once for the check below,
	// and in a traced run a few times for the recovery time.
	var readies []float64
	for i := 0; i < e.restartCycles(); i++ {
		srv.p.kill()
		var ready time.Duration
		srv, ready, err = startServe(ctx, e, cs, "serve-restart"+strconv.Itoa(i), serveArgs...)
		if err != nil {
			return nil, err
		}
		readies = append(readies, ready.Seconds())
	}
	if e.trace {
		rep.set("serve.ready_s", median(readies))
		rep.notef("serve.ready_s: median of %d restarts after SIGKILL, exec to first 200 on /healthz", len(readies))
	}

	checkIngested(ctx, rep, cs, srv, in.traces, in.check)
	if e.trace {
		srv.p.kill() // the replay opens the store the server filled
		if err := traceIngest(ctx, e, rep, storeDir, in.traces); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// postBatch posts traces as one x-mosaic-batch body and requires every
// one of them to be acknowledged under its own ID.
func postBatch(ctx context.Context, c *http.Client, url string, traces []trace) error {
	var body []byte
	for _, t := range traces {
		body = serve.AppendBatchFrame(body, t.blob)
	}
	r, code, err := postIngest(ctx, c, url, serve.BatchContentType, body)
	if err != nil {
		return err
	}
	if code == http.StatusTooManyRequests || len(r.Results) != len(traces) {
		return fmt.Errorf("batch of %d answered %d with %d items", len(traces), code, len(r.Results))
	}
	for k, it := range r.Results {
		if it.ID != traces[k].id || !acked(it.Status) {
			return fmt.Errorf("trace %s acknowledged as %s %q: %s", traces[k].id, it.ID, it.Status, it.Error)
		}
	}
	return nil
}

// saturate is phase C: e.nproc closed-loop clients push traces[from:] in
// batches, re-sending only rejected items after each 429, timed until
// nothing is pending.
func saturate(ctx context.Context, e *env, rep *report, cs *clientSet, srv *server, traces []trace, from int) error {
	n := len(traces) - from
	tallies := make([]batchTally, e.nproc)
	errs := make([]error, e.nproc)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tallies[c].acked = map[int]string{}
			for b := c; b*batchSize < n && errs[c] == nil; b += e.nproc {
				items := make([]int, batchSize)
				for k := range items {
					items[k] = from + b*batchSize + k
				}
				errs[c] = sendBatch(ctx, cs.load, srv.url("/v1/traces:batch"), items,
					func(i int) []byte { return traces[i].blob }, &tallies[c])
			}
		}(c)
	}
	wg.Wait()
	sent := time.Now()
	if _, err := waitDrained(ctx, cs, srv); err != nil {
		return err
	}
	done := time.Now()
	posts, throttled, ackedN := 0, 0, 0
	for c, t := range tallies {
		if errs[c] != nil {
			rep.fail(1, "phase C client %d: %v", c, errs[c])
		}
		posts += t.posts
		throttled += t.throttled
		for i, id := range t.acked {
			ackedN++
			if id != string(traces[i].id) {
				rep.fail(1, "trace %s acknowledged under %s", traces[i].id, id)
			}
		}
	}
	rep.attempted += posts
	if ackedN != n {
		rep.fail(n-ackedN, "phase C: %d of %d traces acknowledged", ackedN, n)
	}
	rep.set("serve.saturated_traces_per_s", float64(n)/done.Sub(start).Seconds())
	rep.set("serve.http_429_share", float64(throttled)/float64(posts))
	rep.set("serve.drain_s", done.Sub(sent).Seconds())
	rep.notef("phase C: %d traces in batches of %d from %d closed-loop clients, %.2f s to pending == 0 (%.2f s of it after the last ack); %d of %d posts answered 429",
		n, batchSize, e.nproc, done.Sub(start).Seconds(), done.Sub(sent).Seconds(), throttled, posts)
	return nil
}

// waitDrained polls /v1/stats until no categorization is pending and
// returns the statistics read then.
func waitDrained(ctx context.Context, cs *clientSet, srv *server) (serve.StatsResponse, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var stats serve.StatsResponse
		if err := getJSON(ctx, cs.probe, srv.url("/v1/stats"), &stats); err != nil {
			return stats, fmt.Errorf("%w\n%s", err, srv.p.stderrTail())
		}
		if stats.Pending == 0 {
			return stats, nil
		}
		if time.Now().After(deadline) {
			return stats, fmt.Errorf("%s: %d categorizations still pending after 60s\n%s", srv.p.name, stats.Pending, srv.p.stderrTail())
		}
		select {
		case <-ctx.Done():
			return stats, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func dueTimes(sched []ingestReq) []time.Duration {
	due := make([]time.Duration, len(sched))
	for i, r := range sched {
		due[i] = r.due
	}
	return due
}

func acked(status string) bool {
	return status == serve.StatusAccepted || status == serve.StatusCached || status == serve.StatusPending
}

// clientSet separates the connections that carry the measured load from
// the one that polls health and statistics, so the load never uses more
// than its stated connection count.
type clientSet struct {
	load  *http.Client
	probe *http.Client
}

func newClientSet(conns int) *clientSet {
	return &clientSet{load: newHTTPClient(conns), probe: newHTTPClient(1)}
}

// checkIngested verifies a restarted server against what was sent:
// every acknowledged trace is stored and indexed exactly once, nothing
// failed, and a seeded sample of results equals an in-process
// categorization of the same job.
func checkIngested(ctx context.Context, rep *report, cs *clientSet, srv *server, traces []trace, check []int) {
	stats, err := waitDrained(ctx, cs, srv)
	if err != nil {
		rep.problemf("after restart: %v", err)
		return
	}
	n := len(traces)
	if stats.Store.Traces != n || stats.Indexed != n || stats.Failed != 0 || stats.Pending != 0 {
		rep.problemf("after restart: %d traces stored, %d indexed, %d failed, %d pending; want %d, %d, 0, 0\n%s",
			stats.Store.Traces, stats.Indexed, stats.Failed, stats.Pending, n, n, srv.p.stderrTail())
	}
	checkResults(ctx, rep, cs.probe, "restarted server", "http://"+srv.addr, traces, check)
}

// checkResults reads from the server at base the stored result of every
// trace whose job was kept and compares it with an in-process
// categorization of that job.
func checkResults(ctx context.Context, rep *report, c *http.Client, who, base string, traces []trace, check []int) {
	cfg := core.DefaultConfig()
	for _, i := range check {
		t := traces[i]
		want, err := core.Categorize(t.job, cfg)
		if err != nil {
			rep.problemf("categorizing %s in-process: %v", t.id, err)
			return
		}
		var got core.Result
		rep.attempted++
		if err := getJSON(ctx, c, base+"/v1/results/"+string(t.id), &got); err != nil {
			rep.fail(1, "%s: result of %s: %v", who, t.id, err)
		} else if got.JobID != want.JobID || !slices.Equal(got.Labels, want.Labels) {
			rep.fail(1, "%s: result of %s: job %d %v, want job %d %v", who, t.id, got.JobID, got.Labels, want.JobID, want.Labels)
		}
	}
}
