// Package debughttp is the HTTP surface of the introspection plane: the
// debug server (/metrics, /healthz, pprof), the metrics scrape handler,
// the Go runtime's vitals on every /metrics surface, and the flight
// recorder's /debug/requests API. It is the one package of the
// observability plane that imports net or runtime/metrics: telemetry and
// reqtrace stay free of both, so a program that only categorizes — the
// mosaic CLI — links no network stack, builds as a static binary and
// runs no runtime/metrics init.
package debughttp

import (
	"context"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// Route is one extra handler mounted on the introspection mux — how
// subsystems (the serve tier's flight recorder and span budget) surface
// their own debug endpoints on the shared debug server.
type Route struct {
	Pattern string
	Handler http.Handler
}

// MetricsHandler serves reg with scrape-format negotiation: an Accept
// header asking for application/openmetrics-text gets the OpenMetrics
// exposition (trace-ID exemplars included), anything else the classic
// Prometheus 0.0.4 text format.
func MetricsHandler(reg *telemetry.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", telemetry.OpenMetricsContentType)
			_ = reg.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	}
}

// NewMux builds the introspection handler set:
//
//	/metrics       Prometheus/OpenMetrics exposition of reg
//	/healthz       200 "ok" liveness probe
//	/debug/pprof/  net/http/pprof profiles
//
// plus any extra routes.
func NewMux(reg *telemetry.Registry, extra ...Route) *http.ServeMux {
	RegisterRuntimeMetrics(reg) // every /metrics surface reports runtime + build info
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, rt := range extra {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	return mux
}

// writeJSON writes v as two-space-indented JSON with status code: the
// body of every JSON debug endpoint.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running introspection HTTP server.
type Server struct {
	srv  *http.Server
	addr net.Addr
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.addr.String() }

// Close shuts the server down, draining in-flight requests briefly.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// StartServer binds addr and serves the introspection mux (plus any
// extra routes) in a background goroutine. A nil log discards serve
// errors.
func StartServer(addr string, reg *telemetry.Registry, log *slog.Logger, extra ...Route) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewMux(reg, extra...), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			if log != nil {
				log.Error("debug server failed", "addr", addr, "err", err)
			}
		}
	}()
	if log != nil {
		log.Info("debug server listening", "addr", l.Addr().String())
	}
	return &Server{srv: srv, addr: l.Addr()}, nil
}
