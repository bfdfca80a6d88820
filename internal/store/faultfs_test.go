package store

import (
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing/fstest"
)

// fault is what faultFS does to one write or sync instead of carrying it
// out.
type fault int

const (
	noFault    fault = iota
	shortWrite       // a write lands its first half, then fails
	noSpace          // a write fails with ENOSPC and lands nothing
	syncEIO          // an fsync fails with EIO; the bytes it should have flushed are lost
)

// boundary is one write or sync, the points a crash can fall between.
type boundary struct {
	n    int    // how many boundaries came before this one
	path string // the file
	sync bool   // an fsync; otherwise a write of buf at off
	off  int64
	buf  []byte
}

// faultFS is an in-memory fsys that tells what reached the disk from what
// only reached the page cache, so a test can crash it at any write or
// sync and reopen what a real disk would hold: a file it created keeps
// its name only once its directory is synced. Its hook sees every write
// and sync (of a file or of a directory) before it happens and may
// replace it with a fault.
type faultFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	n     int
	hook  func(boundary) fault
	// openErr, when set, may fail an OpenFile before it creates anything.
	openErr func(name string) error
}

// memFile is one file of a faultFS.
type memFile struct {
	data   []byte     // what reads see: the page cache
	synced int        // data[:synced] is on disk ...
	holes  [][2]int64 // ... apart from these ranges, which a failed fsync lost: the disk holds zeros there
	// volatile: the file was created and its directory not synced since;
	// a crash loses it whole.
	volatile bool
}

func newFaultFS() *faultFS { return &faultFS{files: make(map[string]*memFile)} }

func (fs *faultFS) OpenFile(name string) (file, int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.openErr != nil {
		if err := fs.openErr(name); err != nil {
			return nil, 0, err
		}
	}
	m := fs.files[name]
	if m == nil {
		m = &memFile{volatile: true}
		fs.files[name] = m
	}
	return &faultFile{fs: fs, path: name, m: m}, int64(len(m.data)), nil
}

func (fs *faultFS) ReadDir(dir string) ([]os.DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	listing := fstest.MapFS{}
	for path := range fs.files {
		if filepath.Dir(path) == dir {
			listing[filepath.Base(path)] = &fstest.MapFile{}
		}
	}
	return iofs.ReadDir(listing, ".")
}

func (fs *faultFS) MkdirAll(string) error { return nil }

// SyncDir makes the names of dir's files durable; a failed one leaves
// them as they were.
func (fs *faultFS) SyncDir(dir string) error {
	if fs.boundary(boundary{path: dir, sync: true}) == syncEIO {
		return syscall.EIO
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for path, m := range fs.files {
		if filepath.Dir(path) == dir {
			m.volatile = false
		}
	}
	return nil
}

// put installs a file whose bytes are all on disk.
func (fs *faultFS) put(path string, data []byte) {
	fs.files[path] = &memFile{data: slices.Clone(data), synced: len(data)}
}

// disk returns what a crash leaves of one file: its synced bytes, the
// ranges a failed fsync lost read as zeros.
func (m *memFile) disk() []byte {
	img := slices.Clone(m.data[:m.synced])
	for _, h := range m.holes {
		clear(img[h[0]:min(h[1], int64(len(img)))])
	}
	return img
}

// crash returns a new file system holding what a crash at this moment
// leaves on disk: every file whose name is durable, with its synced
// bytes, and for the file at path also tail, the unsynced bytes that
// happened to reach the disk (a torn prefix of the last write, or all of
// it).
func (fs *faultFS) crash(path string, tail []byte) *faultFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	img := newFaultFS()
	for name, m := range fs.files {
		if m.volatile {
			continue
		}
		data := m.disk()
		if name == path {
			data = append(data, tail...)
		}
		img.put(name, data)
	}
	return img
}

// pending returns the bytes of path that reads see and the disk does not
// hold yet; a directory has none.
func (fs *faultFS) pending(path string) []byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	m := fs.files[path]
	if m == nil {
		return nil
	}
	return slices.Clone(m.data[m.synced:])
}

// boundary numbers the next write or sync and asks the hook about it.
func (fs *faultFS) boundary(b boundary) fault {
	fs.mu.Lock()
	b.n = fs.n
	fs.n++
	hook := fs.hook
	fs.mu.Unlock()
	if hook == nil {
		return noFault
	}
	return hook(b)
}

type faultFile struct {
	fs     *faultFS
	path   string
	m      *memFile
	closed bool // guarded by fs.mu
}

func (f *faultFile) isClosed() bool {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.closed
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	if off >= int64(len(f.m.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if f.isClosed() {
		return 0, os.ErrClosed
	}
	flt := f.fs.boundary(boundary{path: f.path, off: off, buf: p})
	var err error
	switch flt {
	case shortWrite:
		p, err = p[:len(p)/2], io.ErrShortWrite
	case noSpace:
		p, err = nil, syscall.ENOSPC
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(f.m.data)) {
		f.m.data = append(f.m.data, make([]byte, end-int64(len(f.m.data)))...)
	}
	copy(f.m.data[off:], p)
	return len(p), err
}

func (f *faultFile) Sync() error {
	if f.isClosed() {
		return os.ErrClosed
	}
	flt := f.fs.boundary(boundary{path: f.path, sync: true})
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if flt == syncEIO {
		// The kernel drops the dirty pages: the disk keeps zeros where
		// they were, and no later fsync writes them.
		f.m.holes = append(f.m.holes, [2]int64{int64(f.m.synced), int64(len(f.m.data))})
		f.m.synced = len(f.m.data)
		return syscall.EIO
	}
	f.m.synced = len(f.m.data)
	return nil
}

func (f *faultFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	f.m.data = f.m.data[:size]
	f.m.synced = min(f.m.synced, int(size))
	return nil
}

func (f *faultFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.closed = true
	return nil
}
