package mosaic

import (
	"context"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
)

// Request tracing, re-exported. The serve tier's per-request span
// trees and black-box flight recorder live in internal/reqtrace; the
// aliases below let a program embedding MOSAIC as a library trace its
// own requests (via context) and retain them in a flight recorder,
// exactly as cmd/mosaic-serve does. The batch pipeline records into no
// request trace: its spans are Options.Telemetry's.
type (
	// RequestTrace is one request's span tree, completed by reference
	// counting so it can outlive the HTTP response that acknowledged it.
	RequestTrace = reqtrace.Trace
	// RequestTraceOptions configures StartRequestTrace.
	RequestTraceOptions = reqtrace.StartOptions
	// TraceAttr is one span annotation (see TraceStr / TraceInt).
	TraceAttr = reqtrace.Attr
	// FlightRecorder retains the last N completed request traces and
	// dumps Chrome-trace JSON for slow or errored ones.
	FlightRecorder = reqtrace.Recorder
	// FlightRecorderConfig configures NewFlightRecorder.
	FlightRecorderConfig = reqtrace.RecorderConfig
)

// StartRequestTrace opens a request trace: the root span covers the
// request envelope, OnDone (usually FlightRecorder.Complete) fires when
// the root is finished and every held reference released.
func StartRequestTrace(o RequestTraceOptions) *RequestTrace { return reqtrace.New(o) }

// NewFlightRecorder builds a flight recorder; wire it as the trace
// OnDone target and serve its Handler under /debug/requests.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder {
	return reqtrace.NewRecorder(cfg)
}

// RequestTraceContext returns ctx carrying the trace with its root span
// as the current parent; spans recorded downstream (TraceSpan, the
// store's commit spans) nest beneath it.
func RequestTraceContext(ctx context.Context, t *RequestTrace) context.Context {
	return reqtrace.NewContext(ctx, t)
}

// TraceSpan records one already-timed span under ctx's current parent;
// a context without an active trace makes it a free no-op.
func TraceSpan(ctx context.Context, name string, start time.Time, dur time.Duration, attrs ...TraceAttr) {
	reqtrace.AddSpan(ctx, name, start, dur, attrs...)
}

// TraceStr builds a string span attribute.
func TraceStr(key, value string) TraceAttr { return reqtrace.Str(key, value) }

// TraceInt builds an integer span attribute.
func TraceInt(key string, v int64) TraceAttr { return reqtrace.Int(key, v) }
