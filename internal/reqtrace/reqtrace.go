// Package reqtrace is MOSAIC's request-scoped tracing layer: a
// per-request span tree created at the HTTP edge and threaded via
// context.Context through every async boundary of the serve tier —
// queue admission, worker categorization, store group-commit, index
// update — plus a fixed-size flight recorder retaining the last N
// completed request traces and auto-dumping Chrome-trace JSON for
// requests that error or run slow. Its /debug/requests API is
// internal/debughttp's.
//
// Like internal/telemetry it is stdlib-only and opt-in: a context
// without an active trace makes every StartSpan/AddSpan call a no-op
// with no allocation, so paths that do not enable tracing pay nothing.
//
// A request trace outlives its HTTP request: ingest acknowledges with
// 202 while categorization continues on a worker. The trace therefore
// completes by reference counting — the HTTP edge finishes the root
// span, each queued unit of async work holds a reference, and the
// trace finalizes (and reaches the flight recorder) when the root is
// finished and the last reference is released.
package reqtrace

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex characters.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// SpanID is the 8-byte W3C span identifier.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 16 lowercase hex characters.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// TraceparentHeader is the W3C trace-context header name.
const TraceparentHeader = "traceparent"

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex trace id>-<16 hex span id>-<2 hex flags>"). It accepts
// any version byte except the reserved "ff" and requires non-zero
// trace and span IDs, per the spec.
func ParseTraceparent(h string) (TraceID, SpanID, bool) {
	var tid TraceID
	var sid SpanID
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, sid, false
	}
	if len(h) > 55 && h[55] != '-' { // future versions may append fields
		return tid, sid, false
	}
	// Version 0xff is reserved; hex decoding is case-insensitive, so the
	// check must be too ("Ff" is just as reserved as "ff").
	var ver [1]byte
	if _, err := hex.Decode(ver[:], []byte(h[:2])); err != nil || ver[0] == 0xff {
		return tid, sid, false
	}
	if _, err := hex.Decode(tid[:], []byte(h[3:35])); err != nil {
		return TraceID{}, sid, false
	}
	if _, err := hex.Decode(sid[:], []byte(h[36:52])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.DecodeString(h[53:55]); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if tid.IsZero() || sid.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return tid, sid, true
}

// FormatTraceparent renders a version-00 traceparent value with the
// sampled flag set — the header echoed to (and propagated by) clients.
// One allocation: the hot path builds the 55-byte value in place.
func FormatTraceparent(tid TraceID, sid SpanID) string {
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], tid[:])
	b[35] = '-'
	hex.Encode(b[36:52], sid[:])
	b[52], b[53], b[54] = '-', '0', '1'
	return string(b[:])
}

// idSeed randomizes generated trace and span IDs per process; the
// per-trace counter then guarantees uniqueness without per-request
// entropy reads. It is drawn on first use, not at package init: a
// program that never starts a trace never pays for it.
var (
	idSeed     [16]byte
	idSeedOnce sync.Once
	idCtr      atomic.Uint64
	spanCtr    atomic.Uint64
)

// drawSeed fills idSeed from the runtime's OS-seeded generator. Its high
// half is never zero, so no trace ID is the invalid all-zero one.
func drawSeed() {
	hi := rand.Uint64()
	for hi == 0 {
		hi = rand.Uint64()
	}
	binary.BigEndian.PutUint64(idSeed[:8], hi)
	binary.BigEndian.PutUint64(idSeed[8:], rand.Uint64())
}

// seed returns the process's ID seed, drawing it on first use.
func seed() *[16]byte {
	idSeedOnce.Do(drawSeed)
	return &idSeed
}

// newTraceID returns a process-unique random-looking trace ID.
func newTraceID() TraceID {
	id := TraceID(*seed())
	c := idCtr.Add(1)
	binary.BigEndian.PutUint64(id[8:], binary.BigEndian.Uint64(id[8:])^c)
	return id
}

// newSpanBase returns where a new trace's span IDs start counting: a
// random-looking point in the 64-bit space, so the traces one request
// leaves on the nodes it crosses — and on one node, an RPC that comes back
// to it — share a trace ID but no span ID, and merge into one tree.
func newSpanBase() uint64 {
	x := binary.LittleEndian.Uint64(seed()[:8]) + spanCtr.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Attr is one span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Value: strconv.FormatInt(v, 10)} }

// Span is one completed timed unit of work inside a request trace.
type Span struct {
	ID     SpanID
	Parent SpanID // zero for the root's remote parent-less case
	Name   string
	Start  time.Time
	Dur    time.Duration
	Attrs  []Attr
	Err    string
}

// maxSpans bounds one trace's span count so a pathological request
// cannot grow a trace without bound; spans past the cap are counted,
// not retained. StartOptions.Unbounded lifts it.
const maxSpans = 512

// inlineSpans and inlineAttrs size the scratch storage every live
// trace starts with: a typical ingest records ~10 spans (root, decode,
// two commits, queue wait, worker, funnel, categorize, index update)
// with a couple of annotations each, so recording spans on the common
// request never touches the allocator.
const (
	inlineSpans = 12
	inlineAttrs = 24
)

// traceScratch is the recording buffer a live trace writes spans into.
// It is allocated separately from the Trace and dropped at finalize,
// when compactLocked copies the recorded spans into exact-size slices:
// the flight-recorder ring then retains ~¼ the memory per trace, which
// keeps the GC scan cost of a full 256-entry ring off the request hot
// path.
type traceScratch struct {
	spanBuf  [inlineSpans]Span
	arenaBuf [inlineAttrs]Attr
}

// scratchPool recycles recording buffers across requests: a scratch is
// owned by exactly one live trace (New → finalize), so the pool turns
// the largest per-request allocation into a reuse.
var scratchPool = sync.Pool{New: func() any { return new(traceScratch) }}

// Trace is one request's span tree, safe for concurrent use: the HTTP
// goroutine and queue workers (or, for a run-level trace, the engine's
// stage goroutines) all record into it. It finalizes once — when
// FinishRoot has run and every Hold has been Released — and then invokes
// the OnDone hook (normally the flight recorder) exactly once.
type Trace struct {
	id           TraceID
	root         SpanID
	remoteParent SpanID // parent span from an incoming traceparent
	reqID        string
	method       string
	route        string
	start        time.Time
	tp           string  // cached traceparent value, built once in New
	rootRef      spanRef // context value for NewContext, zero-alloc

	spanBase uint64 // span IDs are spanBase + 1, + 2, ...
	spanCtr  atomic.Uint64

	mu        sync.Mutex
	spans     []Span
	arena     []Attr // attribute storage shared by this trace's spans
	unbounded bool   // no maxSpans cap
	dropped   int
	refs      int
	rootEnded bool
	finished  bool
	status    int
	errMsg    string
	end       time.Time // latest recorded span end
	onDone    func(*Trace)
	scratch   *traceScratch // recording buffers; nil once compacted
}

// StartOptions configures a new request trace.
type StartOptions struct {
	// Traceparent is the incoming W3C header value; when valid its
	// trace ID is adopted and its span ID becomes the root's parent.
	// Invalid or empty values start a fresh trace.
	Traceparent string
	// RequestID is the X-Request-Id correlation ID.
	RequestID string
	// Method and Route name the root span ("POST /v1/traces").
	Method, Route string
	// Start is the request arrival time (zero: now).
	Start time.Time
	// Unbounded lifts the per-trace span cap. It is for the one trace
	// that is not a request: a corpus run's, whose span count is the size
	// of the corpus its operator asked to have traced. A request trace
	// stays capped — a 1024-item batch must not grow one without limit.
	Unbounded bool
	// OnDone runs exactly once when the trace finalizes; the flight
	// recorder's Complete is the usual target. It is invoked
	// synchronously from whichever goroutine releases the last
	// reference.
	OnDone func(*Trace)
}

// New starts a request trace holding one reference (released by
// FinishRoot).
func New(o StartOptions) *Trace {
	t := &Trace{
		reqID:     o.RequestID,
		method:    o.Method,
		route:     o.Route,
		start:     o.Start,
		unbounded: o.Unbounded,
		refs:      1,
		onDone:    o.OnDone,
		status:    -1,
	}
	if t.start.IsZero() {
		t.start = time.Now()
	}
	if tid, sid, ok := ParseTraceparent(o.Traceparent); ok {
		t.id = tid
		t.remoteParent = sid
	} else {
		t.id = newTraceID()
	}
	t.spanBase = newSpanBase()
	t.root = t.newSpanID()
	t.scratch = scratchPool.Get().(*traceScratch)
	t.spans = t.scratch.spanBuf[:0]
	t.arena = t.scratch.arenaBuf[:0]
	t.tp = FormatTraceparent(t.id, t.root)
	t.rootRef = spanRef{t: t, parent: t.root}
	return t
}

func (t *Trace) newSpanID() SpanID {
	var id SpanID
	n := t.spanBase + t.spanCtr.Add(1)
	if n == 0 { // the invalid ID: skip it
		n = t.spanBase + t.spanCtr.Add(1)
	}
	binary.BigEndian.PutUint64(id[:], n)
	return id
}

// ID returns the trace ID.
func (t *Trace) ID() TraceID { return t.id }

// Root returns the root span ID (the one echoed in traceparent).
func (t *Trace) Root() SpanID { return t.root }

// RequestID returns the correlation ID captured at start.
func (t *Trace) RequestID() string { return t.reqID }

// Start returns the request arrival time.
func (t *Trace) Start() time.Time { return t.start }

// Method and Route return what the root span is named by: "POST" and
// "/v1/traces", or "RPC" and an operation's name.
func (t *Trace) Method() string { return t.method }
func (t *Trace) Route() string  { return t.route }

// name is what the trace traces — "POST /v1/traces", or the bare route
// when there is no method: the root span's name and the trace's label in
// a Chrome-trace document.
func (t *Trace) name() string {
	if t.method == "" {
		return t.route
	}
	return t.method + " " + t.route
}

// Traceparent returns the outgoing traceparent header value for this
// trace's root span (cached — no per-call formatting).
func (t *Trace) Traceparent() string { return t.tp }

// IDString returns the trace ID as 32 hex characters without
// allocating: it is a slice of the cached traceparent value.
func (t *Trace) IDString() string { return t.tp[3:35] }

// SetError marks the whole request as errored (flight-recorder dump
// trigger), keeping the first message.
func (t *Trace) SetError(msg string) {
	t.mu.Lock()
	if t.errMsg == "" {
		t.errMsg = msg
	}
	t.mu.Unlock()
}

// Hold adds one reference for a unit of async work linked to the
// request (a queued categorization). Every Hold needs exactly one
// Release.
func (t *Trace) Hold() {
	t.mu.Lock()
	t.refs++
	t.mu.Unlock()
}

// Release drops one reference, finalizing the trace when it was the
// last and the root already finished.
func (t *Trace) Release() {
	t.mu.Lock()
	t.refs--
	done := t.refs == 0 && t.rootEnded && !t.finished
	if done {
		t.finished = true
		t.compactLocked()
	}
	hook := t.onDone
	t.mu.Unlock()
	if done && hook != nil {
		hook(t)
	}
}

// compactLocked moves the recorded spans out of the oversized scratch
// buffers into exact-size slices and drops the scratch, so a finalized
// trace retained by the flight recorder pins only what it used. Runs
// once, under t.mu, as the trace finalizes.
func (t *Trace) compactLocked() {
	if t.scratch == nil {
		return
	}
	sc := t.scratch
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	na := 0
	for i := range spans {
		na += len(spans[i].Attrs)
	}
	arena := make([]Attr, 0, na)
	for i := range spans {
		if len(spans[i].Attrs) == 0 {
			continue
		}
		off := len(arena)
		arena = append(arena, spans[i].Attrs...)
		spans[i].Attrs = arena[off:len(arena):len(arena)]
	}
	t.spans, t.arena, t.scratch = spans, arena, nil
	*sc = traceScratch{} // drop attr string refs before pooling
	scratchPool.Put(sc)
}

// FinishRoot records the root span (edge → response write), tags it
// with the HTTP status, and releases the reference New created. Async
// holders may still be running; the trace finalizes when the last one
// releases.
func (t *Trace) FinishRoot(status int, attrs ...Attr) {
	now := time.Now()
	t.mu.Lock()
	if !t.rootEnded {
		t.rootEnded = true
		t.status = status
		t.addLockedExtra(Span{
			ID: t.root, Parent: t.remoteParent, Name: t.name(),
			Start: t.start, Dur: now.Sub(t.start),
		}, attrs, Attr{Key: "http.status", Value: statusString(status)})
	}
	t.mu.Unlock()
	t.Release()
}

// statusTab holds the decimal strings of common HTTP statuses so
// FinishRoot skips strconv on the hot path.
var statusTab = [600]string{
	200: "200", 201: "201", 202: "202", 204: "204", 206: "206",
	301: "301", 302: "302", 304: "304",
	400: "400", 401: "401", 403: "403", 404: "404", 405: "405", 409: "409",
	410: "410", 413: "413", 415: "415", 422: "422", 429: "429",
	500: "500", 501: "501", 502: "502", 503: "503", 504: "504",
}

func statusString(code int) string {
	if code >= 0 && code < len(statusTab) && statusTab[code] != "" {
		return statusTab[code]
	}
	return strconv.Itoa(code)
}

// addLocked appends one completed span, copying attrs into the trace's
// arena (so callers' attr slices never escape) and maintaining the
// trace envelope end. Callers hold t.mu.
func (t *Trace) addLocked(s Span, attrs []Attr) {
	if len(t.spans) >= maxSpans && !t.unbounded {
		t.dropped++
		return
	}
	s.Attrs = t.claimAttrsLocked(attrs)
	t.spans = append(t.spans, s)
	if end := s.Start.Add(s.Dur); end.After(t.end) {
		t.end = end
	}
}

// addLockedExtra is addLocked with one extra attribute appended after
// attrs — it lands in the arena alongside them, so FinishRoot can tag
// the root span's status without building a combined slice first.
func (t *Trace) addLockedExtra(s Span, attrs []Attr, extra Attr) {
	if len(t.spans) >= maxSpans && !t.unbounded {
		t.dropped++
		return
	}
	need := len(attrs) + 1
	if n := len(t.arena); n+need <= cap(t.arena) {
		t.arena = append(t.arena, attrs...)
		t.arena = append(t.arena, extra)
		s.Attrs = t.arena[n : n+need : n+need]
	} else {
		s.Attrs = append(append(make([]Attr, 0, need), attrs...), extra)
	}
	t.spans = append(t.spans, s)
	if end := s.Start.Add(s.Dur); end.After(t.end) {
		t.end = end
	}
}

// claimAttrsLocked copies attrs into the trace's arena. Callers hold
// t.mu. A full arena is replaced by one twice its size (spans recorded
// so far keep their slices of the old one), so a trace of many spans —
// a corpus run's has one per item per stage — allocates per doubling,
// not per span. The returned slice is capped at its length so a later
// SetAttr append cannot bleed into the next span's storage.
func (t *Trace) claimAttrsLocked(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	if len(t.arena)+len(attrs) > cap(t.arena) {
		t.arena = make([]Attr, 0, max(2*cap(t.arena), len(attrs)))
	}
	n := len(t.arena)
	t.arena = append(t.arena, attrs...)
	return t.arena[n:len(t.arena):len(t.arena)]
}

// AddCompleted records an already-timed span under the given parent
// and returns its ID (for linking further children).
func (t *Trace) AddCompleted(parent SpanID, name string, start time.Time, dur time.Duration, attrs ...Attr) SpanID {
	id := t.newSpanID()
	t.mu.Lock()
	t.addLocked(Span{ID: id, Parent: parent, Name: name, Start: start, Dur: dur}, attrs)
	t.mu.Unlock()
	return id
}

// Status returns the recorded HTTP status (-1 before FinishRoot).
func (t *Trace) Status() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Err returns the request-level error message ("" when none).
func (t *Trace) Err() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.errMsg
}

// Duration returns the envelope duration: request arrival to the end
// of the latest recorded span (async work included).
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.end.IsZero() {
		return 0
	}
	return t.end.Sub(t.start)
}

// Errored reports whether the request should trigger an error dump: a
// 5xx status or an explicit SetError.
func (t *Trace) Errored() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.errMsg != "" || t.status >= 500
}

// Spans returns a copy of the recorded spans, in record order.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dropped returns how many spans were discarded past the per-trace cap.
func (t *Trace) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// ---- context propagation ----

type ctxKey struct{}

// spanRef is the context value: the active trace plus the span that new
// children should parent under. It travels as a pointer — embedded in
// the Trace (root) or the ActiveSpan (children) — so deriving a traced
// context never boxes a value into an interface.
type spanRef struct {
	t      *Trace
	parent SpanID
}

// NewContext returns ctx carrying the trace with the root span as the
// current parent — the HTTP middleware's entry point.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &t.rootRef)
}

// ContextWithParent returns ctx carrying the trace with an explicit
// current parent span — how workers resume a request's trace on a
// fresh (non-request) context after crossing the queue boundary.
func ContextWithParent(ctx context.Context, t *Trace, parent SpanID) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &spanRef{t: t, parent: parent})
}

// FromContext returns the active trace and current parent span, or
// (nil, zero, false) when the context is untraced.
func FromContext(ctx context.Context) (*Trace, SpanID, bool) {
	sc, ok := ctx.Value(ctxKey{}).(*spanRef)
	if !ok {
		return nil, SpanID{}, false
	}
	return sc.t, sc.parent, true
}

// spanInlineAttrs is the per-span inline annotation capacity; spans
// with more spill to the heap.
const spanInlineAttrs = 6

// ActiveSpan is an in-progress span. The zero of its pointer type is a
// valid no-op: every method tolerates a nil receiver, so call sites
// never branch on whether tracing is enabled. Attributes live in a
// fixed inline buffer until End copies them into the trace, so the
// variadic attr slices at call sites stay on the caller's stack.
type ActiveSpan struct {
	t        *Trace
	id       SpanID
	parent   SpanID
	name     string
	start    time.Time
	childRef spanRef // context value for descendants
	nattrs   int
	attrBuf  [spanInlineAttrs]Attr
	spill    []Attr // overflow past attrBuf (rare)
	err      string
}

// StartSpan opens a child span of the context's current parent and
// returns a context making the new span the parent for further
// descendants. On an untraced context it returns ctx unchanged and a
// nil span — no allocation, no clock read.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *ActiveSpan) {
	sp := StartLeaf(ctx, name, attrs...)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, &sp.childRef), sp
}

// StartLeaf opens a child span without deriving a context — for spans
// that will have no traced descendants (a store commit, a decode). It
// skips StartSpan's context allocation; otherwise identical.
func StartLeaf(ctx context.Context, name string, attrs ...Attr) *ActiveSpan {
	return StartLeafAt(ctx, name, time.Time{}, attrs...)
}

// StartLeafAt is StartLeaf for a span that began at start (zero: now):
// one whose caller read the clock before it knew the span's attributes.
func StartLeafAt(ctx context.Context, name string, start time.Time, attrs ...Attr) *ActiveSpan {
	sc, ok := ctx.Value(ctxKey{}).(*spanRef)
	if !ok {
		return nil
	}
	if start.IsZero() {
		start = time.Now()
	}
	sp := &ActiveSpan{
		t: sc.t, id: sc.t.newSpanID(), parent: sc.parent,
		name: name, start: start,
	}
	sp.childRef = spanRef{t: sc.t, parent: sp.id}
	sp.SetAttr(attrs...)
	return sp
}

// SetAttr appends attributes to the span.
func (s *ActiveSpan) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	for _, a := range attrs {
		if s.nattrs < len(s.attrBuf) {
			s.attrBuf[s.nattrs] = a
			s.nattrs++
		} else {
			s.spill = append(s.spill, a)
		}
	}
}

// SetError marks the span (and its trace) errored.
func (s *ActiveSpan) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.err = err.Error()
	s.t.SetError(s.err)
}

// ID returns the span's ID (zero for the no-op span).
func (s *ActiveSpan) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// End completes the span and records it into the trace.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	now := time.Now()
	attrs := s.attrBuf[:s.nattrs]
	if s.spill != nil {
		attrs = append(append([]Attr(nil), attrs...), s.spill...)
	}
	s.t.mu.Lock()
	s.t.addLocked(Span{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, Dur: now.Sub(s.start), Err: s.err,
	}, attrs)
	s.t.mu.Unlock()
}

// AddSpan records an already-timed span under the context's current
// parent (a queue wait, say). No-op on untraced contexts.
func AddSpan(ctx context.Context, name string, start time.Time, dur time.Duration, attrs ...Attr) {
	sc, ok := ctx.Value(ctxKey{}).(*spanRef)
	if !ok {
		return
	}
	sc.t.AddCompleted(sc.parent, name, start, dur, attrs...)
}
