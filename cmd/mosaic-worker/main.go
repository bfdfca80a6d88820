// Command mosaic-worker runs a distributed categorization worker: it
// listens for connections from a mosaic master (see the
// examples/distributed program), speaking the cluster's frame protocol,
// and categorizes the traces it receives.
// This is the role Dispy workers played in the paper's Python
// implementation.
//
// The worker is observable and drains cleanly: -debug-addr serves
// Prometheus metrics (/metrics), liveness (/healthz) and pprof, and
// SIGINT/SIGTERM stop accepting, finish in-flight RPCs, log a drain
// line, and exit 0.
//
// Usage:
//
//	mosaic-worker [-listen :7464] [-debug-addr :8080]
//	              [-log-level info] [-log-format text] [-drain-timeout 10s]
//	mosaic-worker -v
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/dist"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// version is the worker build version, overridable at link time via
// -ldflags "-X main.version=...".
var version = "2.0.0"

func main() {
	var (
		listen       = flag.String("listen", ":7464", "TCP address to listen on")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics, /healthz and pprof on this address (empty: disabled)")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat    = flag.String("log-format", "text", "log format: text or json")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "max time to wait for in-flight RPCs on shutdown")
		showVersion  = flag.Bool("v", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Printf("mosaic-worker %s\n", version)
		return
	}
	telemetry.SetBuildVersion(version)
	log, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mosaic-worker:", err)
		os.Exit(2)
	}

	reg := telemetry.NewRegistry()
	if *debugAddr != "" {
		dbg, err := telemetry.StartServer(*debugAddr, reg, log)
		if err != nil {
			log.Error("debug server failed to start", "addr", *debugAddr, "err", err)
			os.Exit(1)
		}
		defer dbg.Close()
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Error("listen failed", "addr", *listen, "err", err)
		os.Exit(1)
	}
	// Log the *resolved* address: ":0" style flags resolve to a real port.
	log.Info("serving", "addr", l.Addr().String(), "version", version)

	srv := dist.NewServer(log, reg)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Info("signal received, draining in-flight RPCs", "signal", sig.String(), "timeout", drainTimeout.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Warn("drain timed out, closing remaining connections", "err", err)
		} else {
			log.Info("drained cleanly, exiting")
		}
		<-errc // Serve returns once the listener closes
	case err := <-errc:
		if err != nil {
			log.Error("serve failed", "err", err)
			os.Exit(1)
		}
	}
}
