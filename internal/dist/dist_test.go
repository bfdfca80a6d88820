package dist

import (
	"context"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

func startWorker(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(l) //nolint:errcheck // closed by cleanup
	return l.Addr().String()
}

func testJob(id uint64) *darshan.Job {
	return &darshan.Job{
		JobID: id, User: "u", Exe: "/bin/app", NProcs: 4,
		Start: 0, End: 1000, Runtime: 1000,
		Records: []darshan.FileRecord{{
			Module: darshan.ModPOSIX, Path: "/in",
			C: darshan.Counters{
				Reads: 10, BytesRead: 1 << 30,
				ReadStart: 5, ReadEnd: 60,
			},
		}},
	}
}

func TestClientCategorize(t *testing.T) {
	addr := startWorker(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, reason, err := c.Categorize(testJob(1), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if reason != "" {
		t.Fatalf("unexpected eviction: %s", reason)
	}
	if !res.Categories.Has(category.Temporal(category.DirRead, category.OnStart)) {
		t.Fatalf("categories = %v", res.Categories)
	}
	if res.JobID != 1 {
		t.Fatalf("job id = %d", res.JobID)
	}
}

func TestClientRejectsCorrupted(t *testing.T) {
	addr := startWorker(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := testJob(2)
	bad.Runtime = -1
	res, reason, err := c.Categorize(bad, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res != nil || reason == "" {
		t.Fatalf("corrupted trace not evicted: res=%v reason=%q", res, reason)
	}
}

// categorizeAll pushes jobs through the master's executor entry point
// from as many goroutines as it asks for, the way the engine's Categorize
// stage does, and returns each job's error.
func categorizeAll(m *Master, jobs []*darshan.Job) []error {
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, m.Concurrency())
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, j *darshan.Job) {
			defer wg.Done()
			defer func() { <-sem }()
			_, errs[i] = m.Categorize(context.Background(), j, core.DefaultConfig())
		}(i, j)
	}
	wg.Wait()
	return errs
}

func TestMasterRunFanOut(t *testing.T) {
	clients := make([]*Client, 0, 2)
	regs := make([]*telemetry.Registry, 0, 2)
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		reg := telemetry.NewRegistry()
		go NewServer(nil, reg).Serve(l) //nolint:errcheck // closed by cleanup
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
		regs = append(regs, reg)
	}
	m := NewMaster(clients)
	m.PerWorker = 3

	const n = 40
	jobs := make([]*darshan.Job, n)
	for i := range jobs {
		jobs[i] = testJob(uint64(i))
		if i%4 == 0 {
			jobs[i].NProcs = 0 // corrupt every 4th
		}
	}
	var ok, rejected int
	for i, err := range categorizeAll(m, jobs) {
		switch {
		case err == nil:
			ok++
		case i%4 == 0 && strings.Contains(err.Error(), "rejected"):
			rejected++
		default:
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if ok != 30 || rejected != 10 {
		t.Fatalf("ok=%d rejected=%d", ok, rejected)
	}
	// Round-robin homes and no failover: each worker served half.
	for i, reg := range regs {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if want := "mosaic_dist_worker_rpc_total 20"; !strings.Contains(b.String(), want) {
			t.Fatalf("worker %d: missing %q in\n%s", i, want, b.String())
		}
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestServiceRejectsGarbageTrace(t *testing.T) {
	var s Service
	var reply CategorizeReply
	if err := s.Categorize(&CategorizeArgs{Trace: []byte("junk"), Config: core.DefaultConfig()}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Valid || reply.Reason == "" {
		t.Fatalf("garbage trace: %+v", reply)
	}
}

func TestMasterFailover(t *testing.T) {
	// Two workers; one is killed mid-run. Every job must still produce a
	// result (failover to the survivor), none with transport errors.
	lDead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(lDead) //nolint:errcheck
	deadAddr := lDead.Addr().String()

	aliveAddr := startWorker(t)
	cDead, err := Dial(deadAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cDead.Close()
	cAlive, err := Dial(aliveAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cAlive.Close()

	m := NewMaster([]*Client{cDead, cAlive})
	// Kill the first worker's connection before submitting.
	lDead.Close()
	cDead.Close()

	const n = 20
	jobs := make([]*darshan.Job, n)
	for i := range jobs {
		jobs[i] = testJob(uint64(i))
	}
	for i, err := range categorizeAll(m, jobs) {
		if err != nil {
			t.Fatalf("job %d failed despite a live worker: %v", i, err)
		}
	}
	if m.LiveWorkers() != 1 {
		t.Fatalf("live workers = %d, want 1", m.LiveWorkers())
	}
}

func TestMasterAllWorkersDead(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(l) //nolint:errcheck
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	c.Close()
	m := NewMaster([]*Client{c})
	if _, err := m.Categorize(context.Background(), testJob(1), core.DefaultConfig()); err == nil {
		t.Fatal("categorize succeeded with no live workers")
	}
	if m.LiveWorkers() != 0 {
		t.Fatalf("live workers = %d, want 0", m.LiveWorkers())
	}
}

// TestCategorizeCarriesRequestID: the categorize frame is stamped with
// the request ID and trace context of the request trace in ctx, so the
// worker's side of the call can be matched to the originating request.
func TestCategorizeCarriesRequestID(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv := NewServer(nil, nil)
	var gotRID, gotTP string
	srv.Handle(ring.OpCategorize, "categorize", func(_ context.Context, f *ring.Frame) ([]byte, error) {
		gotRID, gotTP = f.RequestID, f.Traceparent
		return json.Marshal(CategorizeReply{Reason: "not looked at"})
	})
	go srv.Serve(l) //nolint:errcheck // closed by cleanup
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tr := reqtrace.New(reqtrace.StartOptions{Method: "POST", Route: "/v1/traces", RequestID: "req-7"})
	ctx := reqtrace.NewContext(context.Background(), tr)
	if _, reason, err := c.CategorizeContext(ctx, testJob(1), core.DefaultConfig()); err != nil || reason == "" {
		t.Fatalf("categorize: reason=%q err=%v", reason, err)
	}
	tr.FinishRoot(200)
	if gotRID != "req-7" {
		t.Errorf("worker saw request ID %q, want req-7", gotRID)
	}
	if tid, _, ok := reqtrace.ParseTraceparent(gotTP); !ok || tid != tr.ID() {
		t.Errorf("worker saw traceparent %q, want trace %s", gotTP, tr.ID())
	}
}

// TestMasterAsEngineExecutor proves the distributed Master plugs into the
// staged engine as the Categorize-stage executor: same funnel, same
// aggregation, remote detection — no second orchestration loop.
func TestMasterAsEngineExecutor(t *testing.T) {
	addrs := []string{startWorker(t), startWorker(t)}
	var clients []*Client
	for _, a := range addrs {
		c, err := Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients = append(clients, c)
	}
	m := NewMaster(clients)
	if m.Concurrency() != 4 {
		t.Fatalf("Concurrency = %d, want 2 workers x 2 in flight", m.Concurrency())
	}

	jobs := make([]*darshan.Job, 0, 12)
	for i := 1; i <= 12; i++ {
		j := testJob(uint64(i))
		j.User = "u" // same app: dedup keeps one group, 12 runs
		jobs = append(jobs, j)
	}
	res, err := engine.Run(context.Background(), engine.Jobs(jobs), engine.Options{Executor: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Funnel.Total != 12 || res.Funnel.UniqueApps != 1 || len(res.Apps) != 1 {
		t.Fatalf("unexpected engine result: funnel %+v, %d apps", res.Funnel, len(res.Apps))
	}
	if res.Apps[0].Runs != 12 {
		t.Fatalf("runs = %d, want 12", res.Apps[0].Runs)
	}
	if !res.Apps[0].Result.Categories.Has(category.Temporal(category.DirRead, category.OnStart)) {
		t.Fatalf("remote categorization lost categories: %v", res.Apps[0].Result.Labels)
	}
}

// TestMasterExecutorCancellation: an in-flight RPC abandoned by ctx
// cancellation surfaces ctx.Err() without marking the worker dead.
func TestMasterExecutorCancellation(t *testing.T) {
	addr := startWorker(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	m := NewMaster([]*Client{c})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Categorize(ctx, testJob(1), core.DefaultConfig()); err == nil {
		t.Fatal("cancelled executor call succeeded")
	}
	if m.LiveWorkers() != 1 {
		t.Fatal("cancellation marked the worker dead")
	}
}
