package store

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// AppendLog is a minimal CRC-framed append-only log for small records
// (the cluster event journal). It reuses the store's frame layout
// (frame.go) with kind = kindEvent and an empty key, so the same
// torn-tail recovery guarantees apply: on open the file is scanned,
// validated, and truncated to the last intact frame. All methods are
// safe for concurrent use.
type AppendLog struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	size   int64
	sync   bool
	buf    []byte
	closed bool

	records      int
	droppedBytes int64
}

// OpenAppendLog opens (creating if necessary) the log at path. With
// syncEach set, every Append is fsynced before it returns.
func OpenAppendLog(path string, syncEach bool) (*AppendLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening append log %s: %w", path, err)
	}
	size, err := fileSize(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	records := 0
	good, err := scanEvents(f, size, func([]byte) bool { records++; return true })
	if err != nil {
		f.Close()
		return nil, err
	}
	if good < size {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seeking %s: %w", path, err)
	}
	return &AppendLog{f: f, path: path, sync: syncEach, size: good, records: records, droppedBytes: size - good}, nil
}

// scanEvents is scanFrames for an event log: only kindEvent frames with
// an empty key are legal, and fn sees each one's value until it returns
// false.
func scanEvents(f *os.File, limit int64, fn func(value []byte) bool) (good int64, err error) {
	good, _, err = scanFrames(f, limit, func(_ int64, kind byte, key, value []byte) scanEnd {
		switch {
		case kind != kindEvent || len(key) != 0:
			return scanInvalid
		case !fn(value):
			return scanStopped
		}
		return scanToLimit
	})
	if err != nil {
		err = fmt.Errorf("store: append log %s: %w", f.Name(), err)
	}
	return good, err
}

// Append writes one record. The value is framed and CRC-protected;
// with sync-each enabled it is durable when Append returns.
func (l *AppendLog) Append(value []byte) error {
	if err := checkRecord("", value); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("store: append log %s is closed", l.path)
	}
	l.buf = appendFrame(l.buf[:0], kindEvent, "", value)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("store: appending to %s: %w", l.path, err)
	}
	l.size += int64(len(l.buf))
	l.records++
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing %s: %w", l.path, err)
		}
	}
	return nil
}

// AppendRecord implements the event journal's sink interface
// (events.Sink) over Append.
func (l *AppendLog) AppendRecord(value []byte) error { return l.Append(value) }

// Replay calls fn with every intact record value in append order,
// stopping early if fn returns false. It opens its own read handle so
// concurrent Appends are unaffected; frames appended after the replay
// begins may or may not be delivered.
func (l *AppendLog) Replay(fn func(value []byte) bool) error {
	f, err := os.Open(l.path)
	if err != nil {
		return fmt.Errorf("store: opening append log for replay: %w", err)
	}
	defer f.Close()
	size, err := fileSize(f)
	if err != nil {
		return err
	}
	_, err = scanEvents(f, size, fn)
	return err
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
	return l.size
}

// DroppedTailBytes reports how many torn-tail bytes were discarded
// when the log was opened.
func (l *AppendLog) DroppedTailBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.droppedBytes
}

// Close flushes and closes the log. Further Appends fail.
func (l *AppendLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
