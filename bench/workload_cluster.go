package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/serve"
)

// The cluster_mixed workload puts writes beside reads on the ring:
// three mosaic-serve processes with two copies of every trace, one of
// which must be durable on a follower before the ack (-replicas 2
// -replica-ack 1), and no -sync, the ring's default. Batches arrive at
// node a and scatter queries at node b, both on a fixed schedule, one
// connection each. Only here do forwarding, replication, result push,
// scatter and the K-way merge run, and only here does the index take
// writes and reads at once.

const (
	clusterTraceRate = 160.0 // traces per second, as 10 batches of 16
	clusterQueryRate = 50.0  // scatter queries per second
	clusterSample    = 50    // results read back from every node
)

var clusterNodeIDs = []string{"a", "b", "c"}

// clusterQueries are the scatter classes, sent in rotation.
var clusterQueries = []queryKind{queryMix[1], queryMix[2], queryMix[3]}

// cluster is a running set of nodes.
type cluster struct {
	nodes []*server
}

// startCluster starts one mosaic-serve per node ID over dirs under
// base and waits until every node answers /healthz; ready is the time
// from the first exec to the last node's first answer.
func startCluster(ctx context.Context, e *env, cs *clientSet, base, tag string) (*cluster, time.Duration, error) {
	n := len(clusterNodeIDs)
	addrs, err := freeAddrs(2 * n)
	if err != nil {
		return nil, 0, err
	}
	peers := make([]string, n)
	for i, id := range clusterNodeIDs {
		peers[i] = id + "=" + addrs[n+i] + "=" + addrs[i]
	}
	cl := &cluster{}
	start := time.Now()
	for i, id := range clusterNodeIDs {
		p, err := e.start(ctx, "node-"+id+tag, e.mosaicServe(), nil,
			"-addr", addrs[i], "-log-level", "warn", "-store", filepath.Join(base, id),
			"-node", id, "-rpc-addr", addrs[n+i], "-peers", strings.Join(peers, ","),
			"-replicas", "2", "-replica-ack", "1")
		if err != nil {
			return nil, 0, err
		}
		cl.nodes = append(cl.nodes, &server{p: p, addr: addrs[i]})
	}
	var ready time.Duration
	for _, s := range cl.nodes {
		if ready, err = waitHealthy(ctx, cs.probe, s.p, s.addr, start); err != nil {
			return nil, 0, err
		}
	}
	return cl, ready, nil
}

func (cl *cluster) kill() {
	for _, s := range cl.nodes {
		s.p.kill()
	}
}

// cpu lists the CPU each node has used so far.
func (cl *cluster) cpu() ([]time.Duration, error) {
	out := make([]time.Duration, len(cl.nodes))
	for i, s := range cl.nodes {
		c, err := s.p.cpuNow()
		if err != nil {
			return nil, fmt.Errorf("%w\n%s", err, s.p.stderrTail())
		}
		out[i] = c
	}
	return out, nil
}

func runClusterMixed(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	nTraces := int(clusterTraceRate*e.seconds) / batchSize * batchSize
	var check []int // traces whose results are read back from every node
	traces, err := timeSetup(e, rep, filepath.Join(e.work, "inputs"), func() ([]trace, error) {
		runs, err := newPopulation().sample(e.seed, nTraces, true, e.nproc)
		if err != nil {
			return nil, err
		}
		traces, err := encodeTraces(runs, e.nproc)
		if err != nil {
			return nil, err
		}
		evenBatches(traces, batchSize)
		check = keepJobs(traces, e.seed, clusterSample)
		return traces, nil
	})
	if err != nil {
		return nil, err
	}
	var userBytes int64
	for _, t := range traces {
		userBytes += int64(len(t.blob))
	}

	cs := newClientSet(2) // one connection per stream
	base := filepath.Join(e.work, "nodes")
	cl, _, err := startCluster(ctx, e, cs, base, "")
	if err != nil {
		return nil, err
	}
	cpu0, err := cl.cpu()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()

	// Two open-loop streams, one sender and one connection each.
	batchDue := evenSchedule(clusterTraceRate/batchSize, e.dur(1))
	queryDue := evenSchedule(clusterQueryRate, e.dur(1))
	var batchShots, queryShots []shot
	var partials int
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		batchShots = openLoop(ctx, start, batchDue, 1, func(i int) error {
			var body []byte
			for _, t := range traces[i*batchSize : (i+1)*batchSize] {
				body = serve.AppendBatchFrame(body, t.blob)
			}
			r, code, err := postIngest(ctx, cs.load, cl.nodes[0].url("/v1/traces:batch"), serve.BatchContentType, body)
			if err != nil {
				return err
			}
			if code == 429 || len(r.Results) != batchSize {
				return fmt.Errorf("batch answered %d with %d items", code, len(r.Results))
			}
			for k, it := range r.Results {
				if want := traces[i*batchSize+k].id; it.ID != want || !acked(it.Status) {
					return fmt.Errorf("trace %s acknowledged as %s %q: %s", want, it.ID, it.Status, it.Error)
				}
			}
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		queryShots = openLoop(ctx, start, queryDue, 1, func(i int) error {
			q := clusterQueries[i%len(clusterQueries)]
			var got queryReply
			if err := getJSON(ctx, cs.load, queryURL("http://"+cl.nodes[1].addr, q), &got); err != nil {
				return err
			}
			if got.Partial {
				partials++
				return fmt.Errorf("partial answer to %q", q.e)
			}
			if got.Count > len(traces) || len(got.IDs) != min(got.Count, q.limit) {
				return fmt.Errorf("%q: count %d with %d IDs", q.e, got.Count, len(got.IDs))
			}
			return nil
		})
	}()
	wg.Wait()
	var stats []serve.StatsResponse
	for _, s := range cl.nodes {
		st, err := waitDrained(ctx, cs, s)
		if err != nil {
			return nil, err
		}
		stats = append(stats, st)
	}
	wall := time.Since(start)
	slow, err := e.yard.slowdown(start, time.Now())
	if err != nil {
		return nil, err
	}
	rep.set("loadgen.slowdown", slow)
	cpu1, err := cl.cpu()
	if err != nil {
		return nil, err
	}
	rep.set("loadgen.cpu_share", float64(selfCPU()-self0)/float64(wall)/float64(e.nproc))

	batchLat, batchLate := rep.tally("batch", batchShots)
	queryLat, queryLate := rep.tally("scatter query", queryShots)
	ack, err := summarize("batch acks", batchLat)
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, cl.nodes[0].p.stderrTail())
	}
	scatter, err := summarize("scatter queries", queryLat)
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, cl.nodes[1].p.stderrTail())
	}
	if err := rep.checkLateness(append(batchLate, queryLate...)); err != nil {
		return nil, err
	}
	rep.timed("op_p50_ms", ack.p50, slow)
	rep.set("ring.scatter_p50_ms", scatter.p50)
	// The schedule's rate as long as the ring keeps up: left as measured.
	rep.set("work_per_s", float64(len(traces))/wall.Seconds())
	rep.set("ring.batch_ack_tail_ms", ack.tail)
	rep.set("ring.scatter_tail_ms", scatter.tail)
	rep.set("ring.partial_share", float64(partials)/float64(len(queryShots)))
	rep.notef("op_p50_ms: %d batch acks of %d traces at %.0f traces/s; tail is p%g = %.3f ms", ack.n, batchSize, clusterTraceRate, ack.tailP*100, ack.tail)
	rep.notef("ring.scatter_p50_ms: %d scatter queries at %.0f/s; tail is p%g = %.3f ms", scatter.n, clusterQueryRate, scatter.tailP*100, scatter.tail)
	rep.notef("work_per_s: %d traces, %.2f s from the first batch to no node pending", len(traces), wall.Seconds())
	var cpuSum, cpuMax time.Duration
	for i := range cpu1 {
		d := cpu1[i] - cpu0[i]
		cpuSum += d
		cpuMax = max(cpuMax, d)
	}
	rep.timed("cpu_ms_per_op", ms(cpuSum)/float64(len(traces)), slow)
	rep.set("ring.node_cpu_imbalance", float64(cpuMax)*float64(len(cpu1))/float64(cpuSum))

	copies, disk := 0, int64(0)
	for _, st := range stats {
		copies += st.Store.Traces
		disk += st.Store.DiskBytes
	}
	rep.set("ring.replica_copies_per_trace", float64(copies)/float64(len(traces)))
	rep.set("store.disk_bytes_per_user_byte", float64(disk)/float64(userBytes))
	if copies != 2*len(traces) {
		rep.problemf("nodes store %d trace copies, want 2 x %d", copies, len(traces))
	}
	checkCluster(ctx, rep, cs, cl, traces, check)

	peak := 0.0
	for _, s := range cl.nodes {
		rss, err := s.p.peakRSS()
		if err != nil {
			return nil, err
		}
		peak += rss
	}
	rep.set("peak_rss_mb", peak)
	cl.kill()

	if e.trace {
		// Restart: start the cluster again on the same directories and kill
		// it, a few times; the median is the time to ready.
		var readies []float64
		for i := 0; i < restarts; i++ {
			var ready time.Duration
			cl, ready, err = startCluster(ctx, e, cs, base, fmt.Sprintf("-restart%d", i))
			if err != nil {
				return nil, err
			}
			readies = append(readies, ready.Seconds())
			cl.kill()
		}
		rep.set("ring.ready_s", median(readies))
		rep.notef("ring.ready_s: median of %d restarts of all %d nodes after SIGKILL, first exec to the last node's first 200 on /healthz", restarts, len(clusterNodeIDs))
		if err := traceCluster(ctx, e, rep, traces); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkCluster verifies the drained cluster from every node: a query
// that matches everything counts exactly the traces sent, and a seeded
// sample of results, read from all three nodes (at least one of which
// holds no copy), equals an in-process categorization.
func checkCluster(ctx context.Context, rep *report, cs *clientSet, cl *cluster, traces []trace, check []int) {
	everything := queryKind{e: orExpr{term("write_on_end"), notExpr{term("write_on_end")}}, limit: 1}
	for i, s := range cl.nodes {
		var got queryReply
		if err := getJSON(ctx, cs.probe, queryURL("http://"+s.addr, everything), &got); err != nil {
			rep.problemf("node %s: %v", clusterNodeIDs[i], err)
			continue
		}
		if got.Partial || got.Count != len(traces) {
			rep.problemf("node %s counts %d traces (partial=%v), want %d\n%s", clusterNodeIDs[i], got.Count, got.Partial, len(traces), s.p.stderrTail())
		}
	}
	for i, s := range cl.nodes {
		checkResults(ctx, rep, cs.probe, "node "+clusterNodeIDs[i], "http://"+s.addr, traces, check)
	}
}
