package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// fsys is the file system the store's logs live on: the real one (osFS),
// or, in tests, one that fails a write or a sync, or crashes. Every file
// call of this package goes through it, and only this file implements it
// on top of os.
type fsys interface {
	// OpenFile opens name for reading and writing, creating it if it is
	// absent, and reports its size.
	OpenFile(name string) (f file, size int64, err error)
	ReadDir(dir string) ([]os.DirEntry, error) // sorted by name
	MkdirAll(dir string) error
	// SyncDir makes the names in dir durable: a file created there
	// survives a power loss only once its directory is synced.
	SyncDir(dir string) error
}

// file is one open log file. It is only ever read and written at an
// explicit offset.
type file interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

type osFS struct{}

func (osFS) OpenFile(name string) (file, int64, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, info.Size(), nil
}

func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// errDirSync marks an openLog failure that is the directory sync's.
var errDirSync = errors.New("syncing the directory")

// logFile is the package's one appender: a segment of the store, or an
// AppendLog. It owns one read-write handle of its file, and its owner's
// lock orders the appends. Reads may run beside them.
type logFile struct {
	f      file
	accept func(kind byte, key []byte) bool // the frames this file may hold
	size   int64                            // end of the valid prefix: where the next append lands
	buf    []byte                           // frame staging buffer
	// failed holds the first write or sync error and poisons the file
	// until it is reopened: after a failed fsync the kernel may have
	// dropped the dirty pages, so no later fsync can vouch for them.
	failed atomic.Pointer[error]
}

// openLog opens the log at path and scans it with fn, which sees, in
// order, every frame of the valid prefix. A frame accept refuses ends that
// prefix as a torn one does. With truncate set, whatever follows the
// prefix is cut off so that appends resume on a frame boundary; otherwise
// it is only skipped (a sealed segment is never written again). dropped
// counts those bytes. With durable set, an empty (maybe new) file has its
// directory synced before any frame in it can be acknowledged.
func openLog(fs fsys, path string, accept func(kind byte, key []byte) bool, truncate, durable bool, fn func(off int64, kind byte, key, value []byte) scanEnd) (l *logFile, dropped int64, err error) {
	f, size, err := fs.OpenFile(path)
	if err != nil {
		return nil, 0, err
	}
	l = &logFile{f: f, accept: accept}
	good, _, err := l.scan(size, fn)
	if err == nil && truncate && good < size {
		err = f.Truncate(good)
	}
	if err == nil && durable && size == 0 {
		if err = fs.SyncDir(filepath.Dir(path)); err != nil {
			err = fmt.Errorf("%w: %w", errDirSync, err)
		}
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	l.size = good
	return l, size - good, nil
}

// scan is scanFrames over the file's first limit bytes, with every frame
// accept refuses taken for a torn one.
func (l *logFile) scan(limit int64, fn func(off int64, kind byte, key, value []byte) scanEnd) (int64, scanEnd, error) {
	return scanFrames(l.f, limit, func(off int64, kind byte, key, value []byte) scanEnd {
		if !l.accept(kind, key) {
			return scanInvalid
		}
		return fn(off, kind, key, value)
	})
}

// maxStagedBuf bounds the frame staging buffer kept across appends; one
// oversized batch must not pin its buffer for the file's lifetime.
const maxStagedBuf = 8 << 20

// append frames recs, in order, and hands them to the file in one
// positioned write at the end of the valid prefix. A failed write leaves
// size where it was.
func (l *logFile) append(recs ...record) error {
	if p := l.failed.Load(); p != nil {
		return *p
	}
	buf := l.buf[:0]
	for i := range recs {
		if err := checkRecord(recs[i].key, recs[i].value); err != nil {
			return err
		}
		buf = appendFrame(buf, recs[i].kind, recs[i].key, recs[i].value)
	}
	_, err := l.f.WriteAt(buf, l.size)
	if l.buf = buf[:0]; cap(buf) > maxStagedBuf {
		l.buf = nil
	}
	if err != nil {
		return l.poison(err)
	}
	l.size += int64(len(buf))
	return nil
}

// sync makes every append so far durable.
func (l *logFile) sync() error {
	if p := l.failed.Load(); p != nil {
		return *p
	}
	if err := l.f.Sync(); err != nil {
		return l.poison(err)
	}
	return nil
}

// poison records err unless an earlier error already poisoned the file,
// and returns the one recorded.
func (l *logFile) poison(err error) error {
	l.failed.CompareAndSwap(nil, &err)
	return *l.failed.Load()
}
