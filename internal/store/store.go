// Package store is MOSAIC's durable, content-addressed result store:
// the persistence layer that turns one-shot corpus runs into an
// incrementally updated service.
//
// Traces are keyed by the SHA-256 of their canonical binary encoding
// (darshan.MarshalBinary is a pure function of the Job value, so the
// same trace always hashes the same). Categorization results are
// keyed by (trace hash, Config fingerprint): re-analyzing an
// unchanged trace under an unchanged effective configuration is a
// cache hit, and changing any threshold naturally invalidates every
// stored result without touching the trace blobs.
//
// On disk the store is an append-only segment log (numbered *.seg
// files, CRC-framed records) plus an in-memory key → location index
// rebuilt by scanning the segments on Open. Appends are crash-safe:
// a torn tail (kill mid-append) fails its CRC or length check on
// recovery and only the torn frame is dropped — every fully written
// record survives. Hot values are served from a byte-bounded LRU
// cache so memory stays flat regardless of store size. The cache fills
// on reads: a write only refreshes a key that is already cached, and
// trace blobs, which no client reads, are never cached.
//
// Durability (Options.Sync) is group-committed: concurrent writers
// share one fsync, so a burst of appends costs one disk flush, not
// one per record — see waitDurable for the leader/follower protocol.
// Only trace puts wait for it. A result is derived from a stored trace,
// so it rides the next fsync of its segment instead of forcing one; a
// crash that takes it leaves a trace without a result, which the serve
// tier's startup backfill derives again. The store keeps no
// explanation: one is derived from the trace whenever it is asked for.
package store

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
)

// TraceID is the content address of one trace: the lowercase hex
// SHA-256 of its canonical binary encoding.
type TraceID string

// Valid reports whether the ID is a well-formed SHA-256 hex digest.
func (id TraceID) Valid() bool {
	if len(id) != sha256.Size*2 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// HashBytes returns the content address of an encoded trace blob.
func HashBytes(data []byte) TraceID {
	hashPasses.Add(1)
	sum := sha256.Sum256(data)
	return TraceID(hex.EncodeToString(sum[:]))
}

// hashPasses counts HashBytes calls process-wide. It only ever grows;
// readers compare two readings.
var hashPasses atomic.Int64

// HashPasses returns how many blobs this process has content-addressed
// so far. The write path is meant to hash each blob once between socket
// and segment; tests hold it to that by the difference of two readings.
func HashPasses() int64 { return hashPasses.Load() }

// TraceKey canonically encodes a job and returns its content address
// alongside the encoding, so callers that go on to persist the blob
// do not encode twice.
func TraceKey(j *darshan.Job) (TraceID, []byte, error) {
	data, err := darshan.MarshalBinary(j)
	if err != nil {
		return "", nil, fmt.Errorf("store: encoding trace: %w", err)
	}
	return HashBytes(data), data, nil
}

// Options tunes a store. The zero value selects sane defaults.
type Options struct {
	// MaxSegmentBytes rotates the active segment once it exceeds this
	// size (<= 0: 64 MiB).
	MaxSegmentBytes int64
	// CacheBytes bounds the in-memory value cache (0: 32 MiB; < 0:
	// cache disabled). The key → location index is always resident.
	CacheBytes int64
	// Sync makes every trace put durable before it returns: an append is
	// only acknowledged after an fsync covering it. Syncs are
	// group-committed — concurrent writers (and every blob of one batch)
	// share one fsync, so durability costs one disk flush per batch, not
	// per record. A result put is not waited on: it returns after its
	// write, and its frame becomes durable with the next fsync of its
	// segment — a later trace put's, a rotation's or Close's. A
	// crash before that may take it; what it was derived from is
	// durable, so it can be derived again. Without Sync the log is still
	// crash-consistent (torn tails are dropped on recovery).
	Sync bool
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 64 << 20
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 32 << 20
	}
	return o
}

// loc addresses one stored value inside a segment and remembers the
// kind of the frame around it — what tells a result in served form from
// one in the legacy form under the same key.
type loc struct {
	valOff int64
	seg    int32
	valLen int32 // a frame is at most maxFrameLen
	kind   byte
}

// Stats is a point-in-time view of a store.
type Stats struct {
	Traces           int   `json:"traces"`
	Results          int   `json:"results"`
	LegacyResults    int   `json:"legacy_results"` // of Results, still stored as compact JSON (pre-served form)
	Segments         int   `json:"segments"`
	DiskBytes        int64 `json:"disk_bytes"`
	CacheItems       int   `json:"cache_items"`
	CacheBytes       int64 `json:"cache_bytes"`
	Hits             int64 `json:"hits"`   // GetResult found a stored result
	Misses           int64 `json:"misses"` // GetResult found nothing
	RecoveredFrames  int   `json:"recovered_frames"`
	DroppedTailBytes int64 `json:"dropped_tail_bytes"`
	GroupSyncs       int64 `json:"group_syncs"`   // fsyncs issued by group-commit leaders
	SyncedFrames     int64 `json:"synced_frames"` // frames those fsyncs made durable
}

// Store is a content-addressed trace/result store backed by an
// append-only segment log. All methods are safe for concurrent use.
type Store struct {
	fs   fsys
	dir  string
	opts Options

	mu       sync.RWMutex // guards index, segment bookkeeping, appends
	index    map[string]loc
	segs     []*logFile // index = segment number - 1; the last is the active one
	seq      int64      // appended-frame watermark (monotonic across segments)
	traceSeq int64      // seq after the last trace frame: a duplicate trace put waits on it, not on later results
	closed   bool

	gc groupCommit // fsync cohort state; locked after mu, never before

	traces  int
	results int
	legacy  int // of results, those whose live frame is kindResult

	cache *lru

	hits, misses     atomic.Int64
	groupSyncs       atomic.Int64 // fsyncs issued by group-commit leaders
	syncedFrames     atomic.Int64 // frames made durable by those fsyncs
	recoveredFrames  int
	droppedTailBytes int64

	rotateHook atomic.Value // func(segment int); observes segment rotations
}

// SetRotateHook registers fn to be called with the new segment number
// each time the store rotates away from a live segment (startup opens
// and recovery do not count). The hook runs while internal locks are
// held: it must be fast and must not call back into the store.
func (s *Store) SetRotateHook(fn func(segment int)) {
	s.rotateHook.Store(fn)
}

// groupCommit coordinates durability acknowledgments: appenders wait
// until the durable watermark passes their frame's sequence number, and
// the first waiter to find no fsync in flight becomes the leader,
// syncing once on behalf of every frame appended before it started.
// Writers that append while a sync is in flight form the next cohort.
type groupCommit struct {
	mu      sync.Mutex
	cond    *sync.Cond
	syncing bool
	synced  int64 // durable-frame watermark
}

// Open opens (creating if necessary) the store rooted at dir and
// rebuilds the in-memory index from the segment log. Torn tails from
// a crashed writer are detected by CRC/length validation and dropped;
// everything before them is recovered.
func Open(dir string, opts Options) (*Store, error) {
	return openStore(osFS{}, dir, opts)
}

func openStore(fs fsys, dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		fs:    fs,
		dir:   dir,
		opts:  opts,
		index: make(map[string]loc),
		cache: newLRU(opts.CacheBytes),
	}
	s.gc.cond = sync.NewCond(&s.gc.mu)
	if err := s.recover(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// segPath names segment n (1-based).
func (s *Store) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%06d.seg", n))
}

// recover opens every segment in order, rebuilding the index. The last
// segment becomes the active one.
func (s *Store) recover() error {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: reading %s: %w", s.dir, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return s.loadSegment(s.segPath(1), true)
	}
	for i, name := range names {
		if err := s.loadSegment(filepath.Join(s.dir, name), i == len(names)-1); err != nil {
			return err
		}
	}
	return nil
}

// loadSegment opens the segment at path as the next segment number and
// indexes the frames it holds; a new segment holds none. The last
// segment's torn tail is truncated so appends resume cleanly.
func (s *Store) loadSegment(path string, last bool) error {
	seg := int32(len(s.segs) + 1)
	l, dropped, err := openLog(s.fs, path, segmentFrame, last, s.opts.Sync, func(off int64, kind byte, key, value []byte) scanEnd {
		s.indexPut(string(key), loc{seg: seg, valOff: valueOff(off, len(key)), valLen: int32(len(value)), kind: kind})
		s.recoveredFrames++
		return scanToLimit
	})
	if err != nil {
		return fmt.Errorf("store: segment %s: %w", path, err)
	}
	s.segs = append(s.segs, l)
	s.droppedTailBytes += dropped
	return nil
}

// active is the segment appends go to. Callers hold s.mu.
func (s *Store) active() *logFile { return s.segs[len(s.segs)-1] }

// segmentFrame reports whether a frame may appear in a segment; one that
// may not is treated like a torn tail. kindExplain stays accepted: older
// stores hold such frames, and rejecting one would truncate the segment
// there. indexPut skips them.
func segmentFrame(kind byte, key []byte) bool {
	return (kind >= kindTrace && kind <= kindExplain || kind == kindServed) && len(key) <= maxKeyLen
}

// indexPut records a key's location, maintaining the trace/result
// counters (last write wins, matching log replay order) and how many
// results are live in the legacy form. An explanation frame ("e/") is
// not indexed: nothing reads it.
func (s *Store) indexPut(key string, l loc) {
	if strings.HasPrefix(key, "e/") {
		return
	}
	old, exists := s.index[key]
	if !exists {
		if strings.HasPrefix(key, "t/") {
			s.traces++
		} else {
			s.results++
		}
	}
	if exists && old.kind == kindResult {
		s.legacy--
	}
	if l.kind == kindResult {
		s.legacy++
	}
	s.index[key] = l
}

// rotate seals the active segment and opens the next one. Under
// Options.Sync the sealed segment is synced first and the durable
// watermark advanced, so no group-commit leader ever has to sync a sealed
// segment, and the new segment's name is synced before it takes a frame.
func (s *Store) rotate() error {
	if s.opts.Sync {
		if err := s.active().sync(); err != nil {
			return fmt.Errorf("store: syncing sealed segment: %w", err)
		}
		s.groupSyncs.Add(1)
		s.markSynced(s.seq)
	}
	sealed, n := s.active(), len(s.segs)+1
	if err := s.loadSegment(s.segPath(n), true); err != nil {
		// Appends stay on the sealed segment and the next one retries
		// the rotation, unless the new segment's name could not be made
		// durable: a failed directory sync is not known to be repaired by
		// a later one, so the sealed segment is poisoned and nothing more
		// is acknowledged until a restart.
		if errors.Is(err, errDirSync) {
			return sealed.poison(err)
		}
		return err
	}
	s.active().buf, sealed.buf = sealed.buf, nil // the staging buffer moves on with the appends
	if fn, ok := s.rotateHook.Load().(func(segment int)); ok && fn != nil {
		fn(n)
	}
	return nil
}

// markSynced advances the durable watermark to seq, counting the frames
// it newly covers. A waiter only sleeps while a leader syncs, and the
// leader wakes it.
func (s *Store) markSynced(seq int64) {
	s.gc.mu.Lock()
	if seq > s.gc.synced {
		s.syncedFrames.Add(seq - s.gc.synced)
		s.gc.synced = seq
	}
	s.gc.mu.Unlock()
}

// record is one log entry on its way into the segment.
type record struct {
	kind  byte
	key   string
	value []byte
}

// appendLocked hands recs, in order, to the active segment in one write
// and indexes them, returning the sequence number of the last frame and
// the bytes written. Callers hold s.mu; when Options.Sync is set, a
// trace put must call waitDurable(seq) after releasing it — acknowledging
// a trace before it is durable is the one thing the group-commit protocol
// forbids.
// Frames of one call are contiguous in the log, so recovery keeps a
// prefix of them and nothing else.
func (s *Store) appendLocked(recs ...record) (seq, written int64, err error) {
	active := s.active()
	seg, off := int32(len(s.segs)), active.size
	if err := active.append(recs...); err != nil {
		return 0, 0, fmt.Errorf("store: appending %d record(s): %w", len(recs), err)
	}
	written = active.size - off
	for i := range recs {
		r := &recs[i]
		valOff := valueOff(off, len(r.key))
		s.indexPut(r.key, loc{seg: seg, valOff: valOff, valLen: int32(len(r.value)), kind: r.kind})
		off = valOff + int64(len(r.value)) + frameCRCLen
	}
	s.seq += int64(len(recs))
	seq = s.seq
	if active.size >= s.opts.MaxSegmentBytes {
		if err := s.rotate(); err != nil {
			return seq, written, err
		}
	}
	return seq, written, nil
}

// putRecords appends derived records (results) as one commit — one lock
// acquisition, one write — and returns without waiting for durability:
// under Options.Sync the frames ride the next fsync of their segment. A
// key the read cache holds gets its new value there; the cache admits
// nothing on a write (readResult fills it). kind labels the
// "store.commit" span of a traced ctx.
func (s *Store) putRecords(ctx context.Context, kind string, recs ...record) error {
	start := tracedNow(ctx)
	s.mu.Lock()
	seq, written, err := s.appendLocked(recs...)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	for _, r := range recs {
		s.cache.refresh(r.key, r.value)
	}
	return s.commitCtx(ctx, start, seq, kind, int64(len(recs)), written, false)
}

// waitDurable blocks until the durable watermark covers seq: the heart
// of group commit. The first waiter to find no fsync in flight becomes
// the leader and syncs the active segment once for every frame appended
// before its snapshot; waiters whose frames land during that fsync form
// the next cohort. One fsync therefore acknowledges a whole group of
// concurrent appends, while writers keep appending during the flush. A
// failed fsync poisons the segment: its waiters, and all later ones, are
// acknowledged only if another fsync (a rotation's, Close's) covered
// their frames before it failed.
func (s *Store) waitDurable(seq int64) error {
	g := &s.gc
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.synced < seq {
		if g.syncing {
			g.cond.Wait()
			continue
		}
		g.syncing = true
		g.mu.Unlock()

		s.mu.RLock()
		l, target := s.active(), s.seq
		s.mu.RUnlock()
		s.groupSyncs.Add(1)
		err := l.sync()
		if err == nil {
			s.markSynced(target)
		}

		g.mu.Lock()
		g.syncing = false
		g.cond.Broadcast()
		if err != nil && g.synced < seq {
			return fmt.Errorf("store: sync: %w", err)
		}
	}
	return nil
}

// pread reads a value from its segment into dst's storage, growing it
// when it is too small.
func (s *Store) pread(dst []byte, key string, l loc) ([]byte, error) {
	s.mu.RLock()
	if l.seg < 1 || int(l.seg) > len(s.segs) {
		s.mu.RUnlock()
		return nil, fmt.Errorf("store: invalid segment %d for key %q", l.seg, key)
	}
	r := s.segs[l.seg-1].f
	s.mu.RUnlock()
	buf := slices.Grow(dst[:0], int(l.valLen))[:l.valLen]
	if _, err := r.ReadAt(buf, l.valOff); err != nil && err != io.EOF {
		return nil, fmt.Errorf("store: reading %q: %w", key, err)
	}
	return buf, nil
}

func traceKeyOf(id TraceID) string             { return "t/" + string(id) }
func resultKeyOf(id TraceID, fp string) string { return "r/" + string(id) + "/" + fp }

// PutTraceBytes stores an encoded trace blob under its content
// address. It returns the address and whether the blob was already
// present (content addressing makes re-ingest idempotent).
func (s *Store) PutTraceBytes(data []byte) (TraceID, bool, error) {
	return s.PutTraceBytesCtx(context.Background(), data)
}

// PutTraceBytesCtx is PutTraceBytes under a request-trace context:
// when ctx carries an active reqtrace trace, the commit (group-commit
// watermark wait + fsync under Options.Sync) is recorded as a
// "store.commit" span. Untraced contexts pay nothing. It hashes data
// and hands over to the keyed put; callers that already hold the
// content address call PutTraceBatchKeyedCtx and skip the hash.
func (s *Store) PutTraceBytesCtx(ctx context.Context, data []byte) (TraceID, bool, error) {
	id := HashBytes(data)
	var dup [1]bool
	err := s.putTraces(ctx, []TraceID{id}, [][]byte{data}, dup[:])
	return id, dup[0], err
}

// tracedNow reads the clock for a traced ctx — the start of a commit's
// "store.commit" span, taken before the store lock so the span covers
// the wait for it and the append — and returns zero for an untraced one.
func tracedNow(ctx context.Context) time.Time {
	if _, _, traced := reqtrace.FromContext(ctx); traced {
		return time.Now()
	}
	return time.Time{}
}

// commitCtx acknowledges one append: when durable is set under
// Options.Sync it blocks in waitDurable until the group-commit watermark
// covers seq. When ctx carries an active request trace (start, from
// tracedNow, is set) the lock wait, the append and the durable wait are
// recorded as one "store.commit" span annotated with the record count,
// appended bytes, its durability — "fsync", "deferred" (a derived record
// under Options.Sync, riding the next fsync) or "buffered" (no Sync) —
// and, for an fsync, how many leader fsyncs the store issued while this
// commit waited (group_syncs — 0 means the cohort rode someone else's
// flush). Untraced callers (the batch engine, backfill, benchmarks) take
// the exact pre-tracing path: no clock reads, no allocations.
func (s *Store) commitCtx(ctx context.Context, start time.Time, seq int64, kind string, records, nbytes int64, durable bool) error {
	wait := durable && s.opts.Sync
	if start.IsZero() {
		if wait {
			return s.waitDurable(seq)
		}
		return nil
	}
	sp := reqtrace.StartLeafAt(ctx, "store.commit", start,
		reqtrace.Str("kind", kind),
		reqtrace.Int("records", records),
		reqtrace.Int("bytes", nbytes))
	if !wait {
		durability := "buffered"
		if s.opts.Sync {
			durability = "deferred"
		}
		sp.SetAttr(reqtrace.Str("durability", durability))
		sp.End()
		return nil
	}
	before := s.groupSyncs.Load()
	err := s.waitDurable(seq)
	sp.SetAttr(
		reqtrace.Str("durability", "fsync"),
		reqtrace.Int("group_syncs", s.groupSyncs.Load()-before))
	sp.SetError(err)
	sp.End()
	return err
}

// PutTraceBatchKeyedCtx stores many encoded trace blobs, each under the
// content address the caller already holds, in one staged write and —
// under Options.Sync — one shared fsync, so the per-record syscall and
// durability costs amortize across the whole group; the batch's group
// commit is recorded as one "store.commit" span on a traced ctx. It
// reports per blob whether it was already present (in the store, or
// earlier in the same batch). On error, nothing from the batch is
// acknowledged. This is the serve tier's one trace write: the ingest
// edge computes each ID once (HashBytes of the canonical encoding, which
// is what TraceKey returns) and the store copies the blob into its
// staging buffer before returning, so the caller may recycle it. The
// IDs are trusted, not re-derived — never feed it IDs that did not come
// from HashBytes/TraceKey or from a peer inside the cluster protocol.
func (s *Store) PutTraceBatchKeyedCtx(ctx context.Context, ids []TraceID, blobs [][]byte) ([]bool, error) {
	if len(ids) != len(blobs) {
		return nil, fmt.Errorf("store: keyed batch: %d ids for %d blobs", len(ids), len(blobs))
	}
	for _, id := range ids {
		if !id.Valid() {
			return nil, fmt.Errorf("store: keyed batch: invalid trace ID %q", string(id))
		}
	}
	dup := make([]bool, len(blobs))
	return dup, s.putTraces(ctx, ids, blobs, dup)
}

// putTraces is the one trace write under every PutTrace* entry point:
// blobs not yet stored (and not repeated earlier in the call) become one
// appendLocked call, the rest are flagged in dup.
func (s *Store) putTraces(ctx context.Context, ids []TraceID, blobs [][]byte, dup []bool) error {
	start := tracedNow(ctx)
	recs := make([]record, 0, len(blobs))
	seen := make(map[TraceID]bool, len(blobs)) // duplicates within the call
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("store: closed")
	}
	for i, b := range blobs {
		key := traceKeyOf(ids[i])
		if _, ok := s.index[key]; ok || seen[ids[i]] {
			dup[i] = true
			continue
		}
		seen[ids[i]] = true
		recs = append(recs, record{kind: kindTrace, key: key, value: b})
	}
	if len(recs) == 0 {
		// A duplicate is acknowledged once the frame it found is durable:
		// that frame's own commit may still await its fsync, or have failed.
		// The last trace frame appended bounds it; results appended since
		// are not waited for.
		seq := s.traceSeq
		s.mu.Unlock()
		if s.opts.Sync {
			return s.waitDurable(seq)
		}
		return nil
	}
	seq, written, err := s.appendLocked(recs...)
	if seq > 0 { // appended, even if the rotation after it failed
		s.traceSeq = seq
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.commitCtx(ctx, start, seq, "traces", int64(len(recs)), written, true)
}

// PutTrace canonically encodes and stores a job.
func (s *Store) PutTrace(j *darshan.Job) (TraceID, bool, error) {
	_, data, err := TraceKey(j)
	if err != nil {
		return "", false, err
	}
	return s.PutTraceBytes(data)
}

// HasTrace reports whether a trace blob is stored.
func (s *Store) HasTrace(id TraceID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[traceKeyOf(id)]
	return ok
}

// GetTraceBytes returns the stored encoding of a trace, or (nil,
// false) when absent: ReadTrace into a buffer of its own.
func (s *Store) GetTraceBytes(id TraceID) ([]byte, bool, error) {
	return s.ReadTrace(nil, id)
}

// ReadTrace reads the stored encoding of a trace into dst's storage,
// growing it when it is too small, and returns the bytes read, or (nil,
// false) when the trace is absent. It goes past the read cache, neither
// asking it nor filling it: a trace blob is read by whoever decodes or
// ships it once — a categorizing worker, a hint replay — never by a
// client, so a cached blob would only push out the results clients read.
// A caller that reads many reuses dst.
func (s *Store) ReadTrace(dst []byte, id TraceID) ([]byte, bool, error) {
	key := traceKeyOf(id)
	s.mu.RLock()
	l, ok := s.index[key]
	s.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	v, err := s.pread(dst, key, l)
	return v, err == nil, err
}

// eachLive streams, in log order, the kind, key and value of every frame
// whose key starts with prefix ("t/", "r/": one class of record) and
// that the index still points at (a frame whose key was later rewritten
// is superseded and skipped): one buffered sequential
// pass over the segments, for the readers that want the whole log and
// not one random read per key. Frames appended after the call began are
// not visited, and a segment is read up to its first invalid frame, as
// recovery reads it. value is reused between calls; fn returning false
// stops the pass.
func (s *Store) eachLive(prefix string, fn func(kind byte, key, value []byte) bool) error {
	s.mu.RLock()
	segs := make([]*logFile, len(s.segs))
	limits := make([]int64, len(s.segs))
	for i, l := range s.segs {
		segs[i], limits[i] = l, l.size
	}
	s.mu.RUnlock()
	for si, l := range segs {
		seg := int32(si + 1)
		_, end, err := l.scan(limits[si], func(off int64, k byte, key, value []byte) scanEnd {
			if len(key) < len(prefix) || string(key[:len(prefix)]) != prefix {
				return scanToLimit
			}
			s.mu.RLock()
			l, live := s.index[string(key)]
			s.mu.RUnlock()
			if live && l.seg == seg && l.valOff == valueOff(off, len(key)) && !fn(k, key, value) {
				return scanStopped
			}
			return scanToLimit
		})
		if err != nil {
			return fmt.Errorf("store: segment %d: %w", seg, err)
		}
		if end == scanStopped {
			return nil
		}
	}
	return nil
}

// EachTraceID calls fn for every stored trace blob's content address,
// in log order — the order in which reading the blobs one by one reads
// the segments front to back — from the index alone, reading nothing.
// fn returning false stops early.
func (s *Store) EachTraceID(fn func(TraceID) bool) {
	type placed struct {
		id  string
		loc loc
	}
	s.mu.RLock()
	traces := make([]placed, 0, s.traces)
	for k, l := range s.index {
		if strings.HasPrefix(k, "t/") {
			traces = append(traces, placed{k[len("t/"):], l})
		}
	}
	s.mu.RUnlock()
	slices.SortFunc(traces, func(a, b placed) int {
		return cmp.Or(cmp.Compare(a.loc.seg, b.loc.seg), cmp.Compare(a.loc.valOff, b.loc.valOff))
	})
	for _, t := range traces {
		if !fn(TraceID(t.id)) {
			return
		}
	}
}

// Stats returns a point-in-time view of the store.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := Stats{
		Traces:           s.traces,
		Results:          s.results,
		LegacyResults:    s.legacy,
		Segments:         len(s.segs),
		RecoveredFrames:  s.recoveredFrames,
		DroppedTailBytes: s.droppedTailBytes,
	}
	for _, l := range s.segs {
		st.DiskBytes += l.size
	}
	s.mu.RUnlock()
	st.CacheItems, st.CacheBytes = s.cache.stats()
	st.Hits = s.hits.Load()
	st.Misses = s.misses.Load()
	st.GroupSyncs = s.groupSyncs.Load()
	st.SyncedFrames = s.syncedFrames.Load()
	return st
}

// Close syncs the active segment and closes every file handle. The
// store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if len(s.segs) > 0 {
		// Everything appended before Close is covered by this sync, and
		// only if it succeeds.
		if first = s.active().sync(); first == nil {
			s.markSynced(s.seq)
		}
	}
	for _, l := range s.segs {
		if err := l.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
