package store

import (
	"fmt"
	"sync"
)

// AppendLog is a minimal CRC-framed append-only log for small records
// (the cluster event journal). It is the store's appender (log.go) run
// with kind = kindEvent, an empty key and, optionally, an fsync per
// append, so the same torn-tail recovery guarantees apply: on open the
// file is scanned, validated, and truncated to the last intact frame.
// All methods are safe for concurrent use.
type AppendLog struct {
	mu     sync.Mutex
	log    *logFile
	path   string
	sync   bool
	closed bool

	records      int
	droppedBytes int64
}

// OpenAppendLog opens (creating if necessary) the log at path. With
// syncEach set, every Append is fsynced before it returns.
func OpenAppendLog(path string, syncEach bool) (*AppendLog, error) {
	return openAppendLog(osFS{}, path, syncEach)
}

func openAppendLog(fs fsys, path string, syncEach bool) (*AppendLog, error) {
	l := &AppendLog{path: path, sync: syncEach}
	var err error
	l.log, l.droppedBytes, err = openLog(fs, path, eventFrame, true, syncEach, func(int64, byte, []byte, []byte) scanEnd { l.records++; return scanToLimit })
	if err != nil {
		return nil, fmt.Errorf("store: opening append log %s: %w", path, err)
	}
	return l, nil
}

// eventFrame reports whether a frame may appear in an event log.
func eventFrame(kind byte, key []byte) bool { return kind == kindEvent && len(key) == 0 }

// Append writes one record. The value is framed and CRC-protected;
// with sync-each enabled it is durable when Append returns.
func (l *AppendLog) Append(value []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.log.append(record{kind: kindEvent, value: value}); err != nil {
		return fmt.Errorf("store: appending to %s: %w", l.path, err)
	}
	l.records++
	if l.sync {
		if err := l.log.sync(); err != nil {
			return fmt.Errorf("store: syncing %s: %w", l.path, err)
		}
	}
	return nil
}

// AppendRecord implements the event journal's sink interface
// (events.Sink) over Append.
func (l *AppendLog) AppendRecord(value []byte) error { return l.Append(value) }

// Replay calls fn with every intact record value in append order,
// stopping early if fn returns false. It reads the log's own handle up to
// the size it had when the replay began, so concurrent Appends are
// unaffected and are not delivered.
func (l *AppendLog) Replay(fn func(value []byte) bool) error {
	_, _, err := l.log.scan(l.Size(), func(_ int64, _ byte, _, value []byte) scanEnd {
		if !fn(value) {
			return scanStopped
		}
		return scanToLimit
	})
	if err != nil {
		return fmt.Errorf("store: append log %s: %w", l.path, err)
	}
	return nil
}

// Records reports how many intact records the log holds.
func (l *AppendLog) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Size reports the log's current byte length.
func (l *AppendLog) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.size
}

// DroppedTailBytes reports how many torn-tail bytes were discarded
// when the log was opened.
func (l *AppendLog) DroppedTailBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.droppedBytes
}

// Close closes the log. Further Appends fail.
func (l *AppendLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.log.f.Close()
}
