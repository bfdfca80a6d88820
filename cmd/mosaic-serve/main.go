// Command mosaic-serve runs the MOSAIC online analysis service: a
// long-lived HTTP server that ingests Darshan-like traces, categorizes
// them through the staged engine, and answers boolean category queries
// over the accumulated corpus.
//
//	POST /v1/traces        ingest traces (multipart file parts or raw body)
//	POST /v1/traces:batch  bulk ingest (multipart, or length-prefixed
//	                       application/x-mosaic-batch frames); the whole
//	                       batch is persisted with one group-committed
//	                       fsync before any item is acknowledged
//	GET  /v1/results/{id}  categorization of one trace by content address
//	GET  /v1/explain/{id}  decision provenance: why each category was (or
//	                       wasn't) assigned, derived from the stored trace
//	                       when asked (?category= filters rules)
//	GET  /v1/query?q=...   boolean query, e.g. 'periodic_minute AND write_on_end'
//	GET  /v1/stats         store, index and queue statistics
//	GET  /metrics          Prometheus exposition (OpenMetrics with
//	                       trace-ID exemplars when Accept asks for it)
//	GET  /healthz          liveness
//	GET  /debug/requests   recent requests with per-phase latency
//	                       (?format=text for a table); /{id} for the
//	                       full span tree of one request
//	GET  /debug/budget     per route, each span's share of the request
//	                       time (?format=text for a table)
//
// Every request carries a correlation ID: a client-supplied
// X-Request-Id is kept, otherwise one is generated; the ID is echoed in
// the response and attached to all ingest/query/explain log lines.
// Every request is also traced end to end (W3C traceparent accepted and
// echoed): the span tree covers the HTTP edge, queue wait, engine
// stages, the group-committed store fsync and the index update, and the
// flight recorder retains the last -flight-keep completed requests —
// slow (-slow-dump-ms) or errored ones are dumped to -flight-dir as
// Chrome trace JSON. -no-request-traces switches all of it off.
//
// Results are stored content-addressed under the configuration
// fingerprint, so re-ingesting a trace (or restarting the server) never
// re-categorizes it: the store is the cache. SIGINT/SIGTERM drain
// gracefully — intake stops with 503, every accepted trace is finished
// (bounded by -drain-timeout), the store is synced, and the process
// exits 0. Accepted traces survive even a hard kill: blobs are durable
// before the ingest is acknowledged, and the next startup backfills any
// missing categorizations.
//
// Usage:
//
//	mosaic-serve -store ./data [-addr :8080] [-debug-addr :8081]
//	             [-workers N] [-queue 256] [-drain-timeout 30s]
//	             [-flight-dir ./flight] [-slow-dump-ms 250] [-slo-ms 500]
//	mosaic-serve -v
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"strings"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/debughttp"
	"github.com/mosaic-hpc/mosaic/internal/events"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/serve"
	"github.com/mosaic-hpc/mosaic/internal/store"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// parsePeers decodes the -peers flag: comma-separated
// id=rpcAddr[=httpAddr] entries.
func parsePeers(s string) ([]ring.Node, error) {
	var nodes []ring.Node
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, "=")
		if len(parts) < 2 || len(parts) > 3 || parts[0] == "" || parts[1] == "" {
			return nil, fmt.Errorf("malformed peer %q, want id=rpcAddr[=httpAddr]", entry)
		}
		n := ring.Node{ID: parts[0], Addr: parts[1]}
		if len(parts) == 3 {
			n.HTTPAddr = parts[2]
		}
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("no peers in %q", s)
	}
	return nodes, nil
}

// version is the build version, overridable at link time via
// -ldflags "-X main.version=...".
var version = "1.3.0"

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP address to serve the analysis API on")
		storeDir     = flag.String("store", "", "result store directory (required; created when missing)")
		workers      = flag.Int("workers", 2, "ingest workers draining the categorization queue; also how many GET /v1/explain/{id} derivations run at once")
		queueDepth   = flag.Int("queue", 256, "ingest queue depth; a full queue answers 429")
		maxUploadMB  = flag.Int64("max-upload-mb", 256, "largest accepted trace upload in MiB")
		cacheMB      = flag.Int64("cache-mb", 32, "store read-cache budget in MiB; result reads fill it, writes do not (0 disables)")
		syncWrites   = flag.Bool("sync", false, "acknowledge an ingest only once its trace blobs are fsynced (group-committed); a result becomes durable with the next fsync, and one a crash takes is derived again by the startup backfill")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics, /debug/requests and pprof a second time on this address (empty: disabled)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to finish queued traces on shutdown")
		explainM     = flag.Float64("explain-margin", 0.05, "near-miss margin of the evidence GET /v1/explain/{id} collects, as a fraction of each threshold")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat    = flag.String("log-format", "text", "log format: text or json")
		showVersion  = flag.Bool("v", false, "print version and exit")

		noTraces   = flag.Bool("no-request-traces", false, "disable per-request tracing and the flight recorder")
		flightKeep = flag.Int("flight-keep", 64, "completed request traces retained for GET /debug/requests")
		flightDir  = flag.String("flight-dir", "", "directory receiving Chrome-trace dumps of slow or errored requests (empty: no dumps)")
		slowDumpMS = flag.Int64("slow-dump-ms", 0, "dump any request slower than this many milliseconds to -flight-dir (0: errors only)")
		sloMS      = flag.Int64("slo-ms", 0, "per-request latency SLO target in milliseconds; breaches count in mosaic_slo_latency_breaches_total (0: off)")

		eventsCap  = flag.Int("events-keep", 1024, "cluster events retained in memory for GET /v1/events")
		eventsFile = flag.String("events-file", "", "append-only file persisting the event journal across restarts (empty: memory only)")

		nodeID     = flag.String("node", "", "this node's ID; enables cluster mode (must appear in -peers)")
		rpcAddr    = flag.String("rpc-addr", "", "TCP address for inbound cluster RPCs (required with -node)")
		peers      = flag.String("peers", "", "static cluster membership: comma-separated id=rpcAddr[=httpAddr] entries, identical on every node")
		replicas   = flag.Int("replicas", 2, "total copies of each trace, owner included (capped at the node count)")
		replicaAck = flag.Int("replica-ack", 1, "follower copies that must be durable before an ingest is acked (0: async replication)")
		vnodes     = flag.Int("vnodes", 128, "virtual nodes per member on the consistent-hash ring")

		sigMB   = flag.Int64("significance-mb", 100, "significance threshold in MB for read/write volumes")
		chunks  = flag.Int("chunks", 4, "number of temporal chunks")
		bw      = flag.Float64("bandwidth", 0.05, "Mean Shift bandwidth for periodicity detection")
		spikeHi = flag.Float64("spike-high", 250, "metadata high-spike threshold (req/s)")
		spike   = flag.Float64("spike", 50, "metadata spike threshold (req/s)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mosaic-serve -store DIR [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *showVersion {
		fmt.Printf("mosaic-serve %s\n", version)
		return
	}
	telemetry.SetBuildVersion(version)
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "mosaic-serve: -store is required")
		flag.Usage()
		os.Exit(2)
	}
	log, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mosaic-serve:", err)
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	cfg.SignificanceBytes = *sigMB << 20
	cfg.ChunkCount = *chunks
	cfg.MeanShiftBandwidth = *bw
	cfg.SpikeHighRate = *spikeHi
	cfg.SpikeRate = *spike

	var cacheBytes int64 = -1
	if *cacheMB > 0 {
		cacheBytes = *cacheMB << 20
	}
	st, err := store.Open(*storeDir, store.Options{CacheBytes: cacheBytes, Sync: *syncWrites})
	if err != nil {
		log.Error("opening store failed", "dir", *storeDir, "err", err)
		os.Exit(1)
	}
	sstats := st.Stats()
	log.Info("store opened", "dir", *storeDir,
		"traces", sstats.Traces, "results", sstats.Results,
		"segments", sstats.Segments, "dropped_tail_bytes", sstats.DroppedTailBytes)

	// One registry hosts every mosaic_* family of the node; -debug-addr
	// exposes it a second time, next to pprof.
	reg := telemetry.NewRegistry()
	var flight *reqtrace.Recorder
	if !*noTraces {
		flight = reqtrace.NewRecorder(reqtrace.RecorderConfig{
			Capacity:      *flightKeep,
			Dir:           *flightDir,
			SlowThreshold: time.Duration(*slowDumpMS) * time.Millisecond,
			Log:           log,
		})
	}
	// The event journal: an in-memory ring behind GET /v1/events,
	// optionally persisted through a CRC-framed append-only log whose
	// surviving records are replayed as backlog on startup — node_down
	// and friends survive the restart they often explain.
	var (
		evSink  events.Sink
		backlog []events.Event
	)
	if *eventsFile != "" {
		elog, err := store.OpenAppendLog(*eventsFile, *syncWrites)
		if err != nil {
			log.Error("opening event journal failed", "path", *eventsFile, "err", err)
			st.Close()
			os.Exit(1)
		}
		defer elog.Close()
		var records [][]byte
		if err := elog.Replay(func(v []byte) bool {
			records = append(records, append([]byte(nil), v...))
			return true
		}); err != nil {
			log.Warn("event journal replay failed", "err", err)
		}
		backlog = events.DecodeBacklog(records, *eventsCap)
		evSink = elog
	}
	evLog := events.NewLog(events.Config{
		Capacity: *eventsCap, Node: *nodeID, Logger: log, Sink: evSink, Backlog: backlog,
	})

	scfg := serve.Config{
		Store:          st,
		Analysis:       cfg,
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		MaxUploadBytes: *maxUploadMB << 20,
		Metrics:        reg,
		Log:            log,
		ExplainMargin:  *explainM,
		Flight:         flight,
		DisableTracing: *noTraces,
		SLO:            time.Duration(*sloMS) * time.Millisecond,
		Events:         evLog,
	}
	if *nodeID != "" {
		if *rpcAddr == "" || *peers == "" {
			log.Error("cluster mode needs -rpc-addr and -peers alongside -node")
			st.Close()
			os.Exit(2)
		}
		nodes, err := parsePeers(*peers)
		if err != nil {
			log.Error("parsing -peers failed", "err", err)
			st.Close()
			os.Exit(2)
		}
		scfg.Cluster = &ring.Config{
			Self:         *nodeID,
			Nodes:        nodes,
			VirtualNodes: *vnodes,
			Replication:  *replicas,
			ReplicaAck:   *replicaAck,
		}
	}
	srv, err := serve.New(scfg)
	if err != nil {
		log.Error("starting service failed", "err", err)
		st.Close()
		os.Exit(1)
	}
	if scfg.Cluster != nil {
		rl, err := net.Listen("tcp", *rpcAddr)
		if err != nil {
			log.Error("cluster RPC listen failed", "addr", *rpcAddr, "err", err)
			st.Close()
			os.Exit(1)
		}
		info := srv.Cluster().Info()
		log.Info("cluster mode", "node", *nodeID, "rpc_addr", rl.Addr().String(),
			"members", len(info.Nodes), "replication", info.Replication,
			"replica_ack", info.ReplicaAck, "table_version", info.Version)
		go func() {
			if err := srv.ServeCluster(rl); err != nil {
				log.Error("cluster RPC server failed", "err", err)
			}
		}()
	}
	if *debugAddr != "" {
		// The flight recorder rides on the debug server too, next to
		// /metrics and pprof, so request introspection does not require
		// the API address.
		var extra []debughttp.Route
		if flight != nil {
			fh := debughttp.RequestsHandler(flight)
			extra = append(extra,
				debughttp.Route{Pattern: "GET /debug/requests", Handler: fh},
				debughttp.Route{Pattern: "GET /debug/requests/{id}", Handler: fh},
				debughttp.Route{Pattern: "GET /debug/budget", Handler: debughttp.BudgetHandler(reg)})
		}
		dbg, err := debughttp.StartServer(*debugAddr, reg, log, extra...)
		if err != nil {
			log.Error("debug server failed to start", "addr", *debugAddr, "err", err)
			st.Close()
			os.Exit(1)
		}
		defer dbg.Close()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		st.Close()
		os.Exit(1)
	}
	// Log the *resolved* address: ":0" style flags resolve to a real port.
	log.Info("serving", "addr", l.Addr().String(),
		"fingerprint", srv.Fingerprint(), "workers", *workers,
		"queue", *queueDepth, "version", version)

	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	exit := 0
	select {
	case sig := <-sigc:
		log.Info("signal received, draining", "signal", sig.String(), "timeout", drainTimeout.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		// Stop intake first, then finish every queued categorization.
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Warn("closing HTTP listener", "err", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			log.Warn("drain timed out; accepted traces will be backfilled on restart", "err", err)
		} else {
			log.Info("drained cleanly")
		}
		cancel()
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("serve failed", "err", err)
			exit = 1
		}
	}
	if err := st.Close(); err != nil {
		log.Error("closing store failed", "err", err)
		exit = 1
	}
	os.Exit(exit)
}
