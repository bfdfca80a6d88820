// Package events provides the cluster event journal: a bounded,
// concurrency-safe ring buffer of structured operational events (node
// up/down, hinted-handoff activity, backpressure episodes, crash
// recovery, segment rotations) with monotonic sequence numbers and
// severity levels. Events are mirrored to slog and can optionally be
// persisted through a Sink so the journal survives restarts.
//
// The journal is a diagnostic surface, not a durability primitive: the
// ring holds the most recent Capacity events and readers page through
// them with a cursor (`since` sequence number). A reader whose cursor
// has fallen behind the earliest retained event detects the gap by
// comparing its cursor against the returned Earliest.
package events

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"time"
)

// Severity classifies an event for filtering and slog mirroring.
type Severity uint8

const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

// String renders the severity as its wire form.
func (s Severity) String() string {
	switch s {
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	default:
		return "info"
	}
}

// ParseSeverity maps a wire form back to a Severity. Unknown or empty
// strings parse as SevInfo (the least restrictive filter) with ok=false.
func ParseSeverity(s string) (Severity, bool) {
	switch s {
	case "info", "":
		return SevInfo, s != ""
	case "warn", "warning":
		return SevWarn, true
	case "error":
		return SevError, true
	default:
		return SevInfo, false
	}
}

// MarshalJSON renders the severity as a string.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the string forms produced by MarshalJSON.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	sev, ok := ParseSeverity(str)
	if !ok && str != "" {
		return fmt.Errorf("events: unknown severity %q", str)
	}
	*s = sev
	return nil
}

// Event types emitted across the cluster. The set is open — consumers
// must tolerate unknown types — but these constants name every event
// the core emits.
const (
	TypeNodeUp             = "node_up"
	TypeNodeDown           = "node_down"
	TypeVersionMismatch    = "routing_version_mismatch"
	TypeHintQueued         = "hint_queued"
	TypeHintReplayed       = "hint_replayed"
	TypeHintDropped        = "hint_dropped"
	TypeDegradedAck        = "degraded_ack"
	TypeBackpressure       = "backpressure"
	TypeRecoveryTruncation = "recovery_truncation"
	TypeSegmentRotation    = "segment_rotation"
)

// Event is one structured journal entry. Seq is monotonically
// increasing per journal and never reused; Fields carries small
// string-typed details specific to the event type.
type Event struct {
	Seq      uint64            `json:"seq"`
	Time     time.Time         `json:"time"`
	Type     string            `json:"type"`
	Severity Severity          `json:"severity"`
	Node     string            `json:"node,omitempty"`
	Message  string            `json:"message"`
	Fields   map[string]string `json:"fields,omitempty"`
}

// Sink receives the JSON encoding of every emitted event for optional
// append-only persistence. Append errors are counted but do not block
// or fail emission — the journal is diagnostics, not the write path.
type Sink interface {
	AppendRecord(value []byte) error
}

// Config configures a journal.
type Config struct {
	// Capacity bounds the ring. <=0 defaults to 1024.
	Capacity int
	// Node stamps every event with the local node ID ("" for
	// single-node deployments).
	Node string
	// Logger mirrors events to slog at the level matching their
	// severity. Nil uses slog.Default().
	Logger *slog.Logger
	// Sink, when non-nil, receives each event's JSON encoding.
	Sink Sink
	// Backlog seeds the ring with previously persisted events (e.g.
	// replayed from a store.AppendLog). The journal resumes sequence
	// numbering after the highest backlog Seq.
	Backlog []Event
}

// Log is a bounded in-memory event journal. All methods are safe for
// concurrent use.
type Log struct {
	mu       sync.Mutex
	buf      []Event // ring storage
	start    int     // index of the oldest retained event
	n        int     // retained count
	seq      uint64  // last assigned sequence number
	node     string
	logger   *slog.Logger
	sink     Sink
	sinkErrs uint64
	nowFn    func() time.Time // test seam
}

// NewLog builds a journal from cfg.
func NewLog(cfg Config) *Log {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 1024
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	l := &Log{
		buf:    make([]Event, capacity),
		node:   cfg.Node,
		logger: logger,
		sink:   cfg.Sink,
		nowFn:  time.Now,
	}
	for _, ev := range cfg.Backlog {
		if ev.Seq > l.seq {
			l.seq = ev.Seq
		}
		l.push(ev)
	}
	return l
}

// push appends to the ring, evicting the oldest entry when full.
// Caller holds no lock (construction) or l.mu (Emit).
func (l *Log) push(ev Event) {
	if l.n < len(l.buf) {
		l.buf[(l.start+l.n)%len(l.buf)] = ev
		l.n++
		return
	}
	l.buf[l.start] = ev
	l.start = (l.start + 1) % len(l.buf)
}

// Emit records an event and returns it with its assigned sequence
// number. kv lists alternating field key/value pairs; a trailing
// unpaired key is ignored.
func (l *Log) Emit(sev Severity, typ, msg string, kv ...string) Event {
	var fields map[string]string
	if len(kv) >= 2 {
		fields = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			fields[kv[i]] = kv[i+1]
		}
	}
	ev := Event{
		Time:     l.nowFn().UTC(),
		Type:     typ,
		Severity: sev,
		Node:     l.node,
		Message:  msg,
		Fields:   fields,
	}

	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	l.push(ev)
	sink := l.sink
	l.mu.Unlock()

	l.mirror(ev)
	if sink != nil {
		if b, err := json.Marshal(ev); err == nil {
			if err := sink.AppendRecord(b); err != nil {
				l.mu.Lock()
				l.sinkErrs++
				l.mu.Unlock()
			}
		}
	}
	return ev
}

// mirror writes the event to slog at the level matching its severity.
func (l *Log) mirror(ev Event) {
	level := slog.LevelInfo
	switch ev.Severity {
	case SevWarn:
		level = slog.LevelWarn
	case SevError:
		level = slog.LevelError
	}
	if !l.logger.Enabled(context.Background(), level) {
		return
	}
	args := make([]any, 0, 4+2*len(ev.Fields))
	args = append(args, "event", ev.Type, "seq", ev.Seq)
	for k, v := range ev.Fields {
		args = append(args, k, v)
	}
	l.logger.Log(context.Background(), level, ev.Message, args...)
}

// Page is the result of a Since call: the matching events plus the
// cursor bounds a reader needs to paginate and to detect gaps.
type Page struct {
	// Events holds up to limit events with Seq > since and severity >=
	// the filter, oldest first.
	Events []Event
	// Earliest is the sequence number of the oldest event still
	// retained (0 when the ring is empty). A reader whose cursor is
	// below Earliest-1 has missed events to eviction.
	Earliest uint64
	// Last is the highest sequence number assigned so far.
	Last uint64
}

// Since returns events with Seq > after and Severity >= minSev, oldest
// first, capped at limit (<=0 means no cap beyond the ring size).
func (l *Log) Since(after uint64, minSev Severity, limit int) Page {
	l.mu.Lock()
	defer l.mu.Unlock()

	p := Page{Last: l.seq}
	if l.n == 0 {
		return p
	}
	p.Earliest = l.buf[l.start].Seq
	if limit <= 0 || limit > l.n {
		limit = l.n
	}
	for i := 0; i < l.n && len(p.Events) < limit; i++ {
		ev := l.buf[(l.start+i)%len(l.buf)]
		if ev.Seq <= after || ev.Severity < minSev {
			continue
		}
		p.Events = append(p.Events, ev)
	}
	return p
}

// LastSeq returns the highest sequence number assigned so far.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// SinkErrors reports how many persistence appends have failed.
func (l *Log) SinkErrors() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErrs
}

// DecodeBacklog parses persisted event records (as written through a
// Sink) back into events, skipping records that fail to decode, and
// returns at most the last keep events. It is the bridge between
// store-level replay and Config.Backlog.
func DecodeBacklog(records [][]byte, keep int) []Event {
	var out []Event
	for _, rec := range records {
		var ev Event
		if err := json.Unmarshal(rec, &ev); err != nil {
			continue
		}
		out = append(out, ev)
	}
	if keep > 0 && len(out) > keep {
		out = out[len(out)-keep:]
	}
	return out
}
