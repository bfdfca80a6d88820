// Package dist implements distributed trace categorization: a master
// streams traces to remote workers, which run the MOSAIC pipeline and
// return results. It substitutes the Dispy cluster parallelization of
// the paper's Python implementation and backs the Section IV-E performance
// experiment in its distributed variant.
//
// Master and workers speak the cluster's frame protocol (internal/ring),
// so a deployment runs one wire format — ingest forwarding, replication,
// scatter-gather and remote categorization — with the same request-ID and
// traceparent propagation on every hop. An OpCategorize request carries
// two length-prefixed blobs: the trace in the binary log format
// (internal/darshan), then the JSON-encoded core.Config. The response is
// a JSON CategorizeReply. The trace and result encodings are stable and
// versioned, so master and workers can run different builds.
package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// CategorizeArgs is the RPC request: one binary-encoded trace and the
// pipeline configuration to apply.
type CategorizeArgs struct {
	Trace  []byte
	Config core.Config
}

// CategorizeReply is the RPC response. Invalid traces are not errors at
// the RPC layer: the master counts them as funnel evictions.
type CategorizeReply struct {
	Valid  bool
	Reason string // corruption reason when !Valid
	Result []byte // JSON-encoded core.Result when Valid
}

// Service is the worker-side RPC receiver. The metric fields are nil
// on uninstrumented servers.
type Service struct {
	rpcSeconds *telemetry.Histogram
	rpcTotal   *telemetry.Counter
	rpcInvalid *telemetry.Counter
}

// Categorize decodes, validates and categorizes one trace.
func (s *Service) Categorize(args *CategorizeArgs, reply *CategorizeReply) error {
	if s.rpcTotal != nil {
		s.rpcTotal.Inc()
		start := time.Now()
		defer func() { s.rpcSeconds.Observe(time.Since(start).Seconds()) }()
	}
	j, err := darshan.UnmarshalBinary(args.Trace)
	if err != nil {
		reply.Valid = false
		reply.Reason = "unreadable: " + err.Error()
		if s.rpcInvalid != nil {
			s.rpcInvalid.Inc()
		}
		return nil
	}
	if err := darshan.Validate(j); err != nil {
		reply.Valid = false
		reply.Reason = err.Error()
		if s.rpcInvalid != nil {
			s.rpcInvalid.Inc()
		}
		return nil
	}
	res, err := core.Categorize(j, args.Config)
	if err != nil {
		return fmt.Errorf("dist: categorize job %d: %w", j.JobID, err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("dist: encoding result: %w", err)
	}
	reply.Valid = true
	reply.Result = data
	return nil
}

// NewServer returns a worker: a frame server with the categorize op
// registered. log receives connection lifecycle events and reg the
// worker metrics (mosaic_dist_worker_*: RPC count and latency, open and
// accepted master connections); either may be nil. Shutdown drains
// in-flight RPCs before closing the masters' connections.
func NewServer(log *slog.Logger, reg *telemetry.Registry) *ring.Server {
	svc := &Service{}
	srv := ring.NewServer(ring.ServerOptions{Log: log})
	if reg != nil {
		svc.rpcSeconds = reg.Histogram("mosaic_dist_worker_rpc_seconds", "Latency of one worker-side Categorize RPC.", nil, nil)
		svc.rpcTotal = reg.Counter("mosaic_dist_worker_rpc_total", "Categorize RPCs served by this worker.", nil)
		svc.rpcInvalid = reg.Counter("mosaic_dist_worker_rpc_invalid_total", "Categorize RPCs that carried an invalid trace.", nil)
		openConns := reg.Gauge("mosaic_dist_worker_connections", "Currently open master connections.", nil)
		connsTotal := reg.Counter("mosaic_dist_worker_connections_total", "Master connections accepted since start.", nil)
		var mu sync.Mutex // scrapes may overlap; the delta must be taken once
		reg.OnCollect("dist_worker_connections", func() {
			mu.Lock()
			defer mu.Unlock()
			open, accepted := srv.Conns()
			openConns.Set(float64(open))
			connsTotal.Add(accepted - connsTotal.Value())
		})
	}
	srv.Handle(ring.OpCategorize, "categorize", func(_ context.Context, f *ring.Frame) ([]byte, error) {
		blobs, err := ring.SplitBlobs(f.Body, 2)
		if err != nil {
			return nil, err
		}
		if len(blobs) != 2 {
			return nil, fmt.Errorf("dist: categorize frame carries %d blobs, want trace + config", len(blobs))
		}
		args := CategorizeArgs{Trace: blobs[0]}
		if err := json.Unmarshal(blobs[1], &args.Config); err != nil {
			return nil, fmt.Errorf("dist: decoding config: %w", err)
		}
		var reply CategorizeReply
		if err := svc.Categorize(&args, &reply); err != nil {
			return nil, err
		}
		return json.Marshal(reply)
	})
	return srv
}

// Serve serves an uninstrumented worker on l until it closes. It blocks;
// a clean shutdown returns nil.
func Serve(l net.Listener) error {
	return NewServer(nil, nil).Serve(l)
}

// ListenAndServe serves workers on the given TCP address. It blocks.
func ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return Serve(l)
}

// Client is a connection to one worker.
type Client struct {
	c *ring.Client
}

// Dial connects to a worker at addr. The transport opens connections on
// demand, so Dial pings the worker once: an unreachable worker fails
// here, not on the first trace.
func Dial(addr string) (*Client, error) {
	c := ring.NewClient(addr, 0)
	if _, err := c.Call(context.Background(), ring.OpPing, "ping", "", nil); err != nil {
		c.Close()
		return nil, fmt.Errorf("dist: dialing worker %s: %w", addr, err)
	}
	return &Client{c: c}, nil
}

// Addr returns the worker address the client dialed.
func (c *Client) Addr() string { return c.c.Addr() }

// Close releases the worker's connections.
func (c *Client) Close() error { return c.c.Close() }

// Categorize sends one trace to the worker. An invalid trace returns
// (nil, reason, nil).
func (c *Client) Categorize(j *darshan.Job, cfg core.Config) (*core.Result, string, error) {
	return c.CategorizeContext(context.Background(), j, cfg)
}

// CategorizeContext is Categorize with cancellation: when ctx ends
// before the RPC completes, it returns ctx.Err() without waiting for the
// reply. The frame carries the request ID and trace context of the
// request trace in ctx, if any, so worker-side logs correlate with the
// originating ingest.
func (c *Client) CategorizeContext(ctx context.Context, j *darshan.Job, cfg core.Config) (*core.Result, string, error) {
	data, err := darshan.MarshalBinary(j)
	if err != nil {
		return nil, "", err
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, "", err
	}
	reqID := ""
	if t, _, ok := reqtrace.FromContext(ctx); ok {
		reqID = t.RequestID()
	}
	body := ring.AppendBlob(ring.AppendBlob(nil, data), cfgJSON)
	resp, err := c.c.Call(ctx, ring.OpCategorize, "categorize", reqID, body)
	if err != nil {
		return nil, "", fmt.Errorf("dist: RPC: %w", err)
	}
	var reply CategorizeReply
	if err := json.Unmarshal(resp, &reply); err != nil {
		return nil, "", fmt.Errorf("dist: decoding reply: %w", err)
	}
	if !reply.Valid {
		return nil, reply.Reason, nil
	}
	var res core.Result
	if err := json.Unmarshal(reply.Result, &res); err != nil {
		return nil, "", fmt.Errorf("dist: decoding result: %w", err)
	}
	res.Categories = category.Of(res.Labels)
	return &res, "", nil
}

// Master fans traces out over a set of workers, each handling several
// in-flight requests, with failover across workers. It is an alternate
// executor for the engine's Categorize stage (it satisfies
// engine.Executor): pass it as mosaic.Options.Executor and the staged
// pipeline runs its detection chain on the remote cluster instead of
// in-process — no separate orchestration loop.
type Master struct {
	clients []*Client
	dead    []atomic.Bool // dead[i]: worker i hit a transport error
	next    atomic.Int64  // round-robin home-worker cursor
	// PerWorker is the number of in-flight requests per worker used to
	// size the stage concurrency (Concurrency); <= 0 means 2, enough to
	// overlap RPC round trips with remote compute.
	PerWorker int
	// Log, when non-nil, receives dispatch lifecycle events: retries
	// after a transport error, workers marked dead, dispatch exhaustion.
	Log *slog.Logger

	// Master-side metrics; nil unless Instrument was called.
	rpcSeconds *telemetry.Histogram
	retries    *telemetry.Counter
	rpcErrors  *telemetry.Counter
	deadTotal  *telemetry.Counter
	liveGauge  *telemetry.Gauge
}

// NewMaster wraps the given worker connections. It takes no
// configuration: every Categorize call names the one to apply, which is
// how the engine hands its run's configuration to an executor.
func NewMaster(clients []*Client) *Master {
	return &Master{clients: clients, dead: make([]atomic.Bool, len(clients))}
}

// Instrument registers master-side RPC metrics (mosaic_dist_rpc_*,
// mosaic_dist_workers_live) in reg and routes dispatch lifecycle
// events to log. Either argument may be nil. Call before the first
// dispatch.
func (m *Master) Instrument(reg *telemetry.Registry, log *slog.Logger) *Master {
	m.Log = log
	if reg != nil {
		m.rpcSeconds = reg.Histogram("mosaic_dist_rpc_seconds", "Latency of one master-side Categorize RPC attempt.", nil, nil)
		m.retries = reg.Counter("mosaic_dist_rpc_retries_total", "Dispatch attempts re-routed to another worker after a transport error.", nil)
		m.rpcErrors = reg.Counter("mosaic_dist_rpc_errors_total", "Categorize RPC attempts that failed with a transport error.", nil)
		m.deadTotal = reg.Counter("mosaic_dist_workers_dead_total", "Workers marked dead after a transport error.", nil)
		m.liveGauge = reg.Gauge("mosaic_dist_workers_live", "Workers not yet marked dead.", nil)
		m.liveGauge.Set(float64(len(m.clients)))
	}
	return m
}

// Concurrency implements the engine executor contract: how many
// categorizations the engine should keep in flight across the cluster.
func (m *Master) Concurrency() int {
	per := m.PerWorker
	if per < 1 {
		per = 2
	}
	return len(m.clients) * per
}

// Categorize implements the engine's Categorize-stage executor: one
// validated trace in, one result out, with round-robin load spreading
// and failover across workers. Traces the cluster judges invalid (a
// master/worker validation skew) surface as errors here, since the
// engine's funnel has already filtered corrupted traces.
func (m *Master) Categorize(ctx context.Context, j *darshan.Job, cfg core.Config) (*core.Result, error) {
	home := int(m.next.Add(1)-1) % max(len(m.clients), 1)
	res, reason, err := m.dispatch(ctx, j, cfg, home)
	switch {
	case err != nil:
		return nil, err
	case res == nil:
		return nil, fmt.Errorf("dist: worker rejected validated trace %d: %s", j.JobID, reason)
	default:
		return res, nil
	}
}

// LiveWorkers returns how many workers have not failed.
func (m *Master) LiveWorkers() int {
	n := 0
	for i := range m.dead {
		if !m.dead[i].Load() {
			n++
		}
	}
	return n
}

// dispatch categorizes one job with failover: starting from the job's
// home worker, it tries every live worker in round-robin order, marking
// workers dead on transport errors. It returns what the answering worker
// returned (a nil result and a reason for a trace it judged invalid);
// when every worker has failed, the last error. Cancellation surfaces as
// ctx.Err() without marking workers dead.
func (m *Master) dispatch(ctx context.Context, j *darshan.Job, cfg core.Config, home int) (*core.Result, string, error) {
	n := len(m.clients)
	var lastErr error
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		ci := (home + k) % n
		if m.dead[ci].Load() {
			continue
		}
		if k > 0 && m.retries != nil {
			m.retries.Inc()
		}
		start := time.Now()
		res, reason, err := m.clients[ci].CategorizeContext(ctx, j, cfg)
		if m.rpcSeconds != nil {
			m.rpcSeconds.Observe(time.Since(start).Seconds())
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, "", ctx.Err()
			}
			if m.rpcErrors != nil {
				m.rpcErrors.Inc()
			}
			if !m.dead[ci].Swap(true) {
				if m.deadTotal != nil {
					m.deadTotal.Inc()
				}
				if m.liveGauge != nil {
					m.liveGauge.Set(float64(m.LiveWorkers()))
				}
				if m.Log != nil {
					m.Log.Error("worker marked dead", "worker", m.clients[ci].Addr(), "err", err)
				}
			}
			if m.Log != nil {
				m.Log.Warn("dispatch retrying on next worker", "job", j.JobID, "failed_worker", m.clients[ci].Addr(), "err", err)
			}
			lastErr = err
			continue
		}
		return res, reason, nil
	}
	if lastErr == nil {
		lastErr = errors.New("dist: no live workers")
	}
	if m.Log != nil {
		m.Log.Error("dispatch exhausted all workers", "job", j.JobID, "err", lastErr)
	}
	return nil, "", lastErr
}
