package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
)

// The crash enumeration: one fixed schedule of store and journal
// operations, run over the legacy fixture on a faultFS, crashed at every
// write and sync, and run again with a write or an fsync failing at each
// of them. After every crash the disk image is reopened and held to what
// the acknowledgments promised.

const (
	crashDir      = "store"
	crashJournal  = "store/events.log"
	crashSegBytes = 40 << 10 // the fixture's segment is 31 KB: the schedule rolls a few times
	crashOps      = 200
)

// crashOp is one operation of the schedule.
type crashOp struct {
	do    func(s *Store, j *AppendLog) error
	recs  []kv   // what reading each key the operation writes returns once it is durable
	event []byte // a journal append's value
	// derived: an outcome put, whose acknowledgment promises no
	// durability — its records are durable once a later segment sync
	// (a trace commit's, a rotation's) completes.
	derived bool
}

type kv struct {
	key   string
	value []byte
}

// crashSchedule builds the schedule: keyed batch puts, some all
// duplicates; outcome puts, some of them superseding legacy results; and
// journal appends. The fixture's keys are known to the model before it
// starts.
func crashSchedule(t *testing.T) []crashOp {
	rng := rand.New(rand.NewSource(36))
	fp := core.DefaultConfig().Fingerprint()
	type outcome struct {
		res *core.Result
		rec []byte
	}
	var outcomes []outcome
	for seed := 100; seed < 103; seed++ {
		res := testResult(t, testJob(seed))
		rec, err := newResultRecord(res)
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, outcome{res, rec})
	}
	var blobs [][]byte
	for i := 0; i < 60; i++ {
		blobs = append(blobs, encodedJob(t, i))
	}
	superseded := []TraceID{legacyID("custom-label"), legacyID("quiet/dxt_on")}

	var ops []crashOp
	var last []int // the blobs of the last batch
	for len(ops) < crashOps {
		switch r := rng.Intn(10); {
		case r < 6:
			batch := last
			if r > 0 || batch == nil { // r == 0 puts the last batch again: all duplicates
				batch = make([]int, 1+rng.Intn(4))
				for i := range batch {
					batch[i] = rng.Intn(min(len(blobs), 4+len(ops)/3))
				}
			}
			last = batch
			var op crashOp
			ids, bs := make([]TraceID, len(batch)), make([][]byte, len(batch))
			for i, b := range batch {
				ids[i], bs[i] = HashBytes(blobs[b]), blobs[b]
				op.recs = append(op.recs, kv{traceKeyOf(ids[i]), blobs[b]})
			}
			op.do = func(s *Store, _ *AppendLog) error {
				_, err := s.PutTraceBatchKeyedCtx(context.Background(), ids, bs)
				return err
			}
			ops = append(ops, op)
		case r < 8:
			o := outcomes[rng.Intn(len(outcomes))]
			id, ofp := HashBytes(blobs[rng.Intn(len(blobs))]), fp
			if rng.Intn(4) == 0 {
				id, ofp = superseded[rng.Intn(len(superseded))], legacyFP
			}
			ops = append(ops, crashOp{
				recs:    []kv{{resultKeyOf(id, ofp), o.rec}},
				derived: true,
				do: func(s *Store, _ *AppendLog) error {
					_, err := s.PutOutcomeCtx(context.Background(), id, ofp, o.res)
					return err
				},
			})
		default:
			v := []byte(fmt.Sprintf(`{"seq":%d}`, len(ops)))
			ops = append(ops, crashOp{event: v, do: func(_ *Store, j *AppendLog) error { return j.Append(v) }})
		}
	}
	return ops
}

// keyState is what the model knows of one key.
type keyState struct {
	acked []byte   // the value of the last write known durable; nil when none
	maybe [][]byte // values written after it: unacknowledged, or derived and not yet synced
}

// crashRun runs the schedule once on its own faultFS and keeps the model
// of what each acknowledgment promised.
type crashRun struct {
	t      *testing.T
	fs     *faultFS
	keys   map[string]*keyState
	events [][]byte // every journal append, in call order
	// eventsAcked: events[:eventsAcked] were acknowledged.
	eventsAcked int
	// ackedEnd: per file, the bytes acknowledged syncs made durable.
	ackedEnd map[string]int
	touched  map[string]bool // files the running operation wrote or synced
	synced   map[string]bool // files the running operation synced
	faulted  map[string]bool // files a fault was injected into
	// deferred: keys of acknowledged derived writes no segment sync has
	// covered yet → how many of the key's maybe values that write ends.
	deferred map[string]int
	inject   func(boundary) fault
	sets     map[string]category.Set // result record → its category set, shared between runs
	// enumerate crashes the run at every boundary and checks the image.
	enumerate  bool
	boundaries []boundary // every boundary the run passed, buffers dropped
	opened     int        // boundaries[:opened] came while opening the store and the journal
	images     int        // crash images checked
}

func newCrashRun(t *testing.T, fixture []byte, sets map[string]category.Set) *crashRun {
	r := &crashRun{
		t:        t,
		sets:     sets,
		fs:       newFaultFS(),
		keys:     make(map[string]*keyState),
		ackedEnd: map[string]int{crashDir + "/000001.seg": len(fixture)},
		touched:  make(map[string]bool),
		synced:   make(map[string]bool),
		faulted:  make(map[string]bool),
		deferred: make(map[string]int),
		inject:   func(boundary) fault { return noFault },
	}
	r.fs.put(crashDir+"/000001.seg", fixture)
	r.fs.hook = r.hook
	return r
}

func (r *crashRun) hook(b boundary) fault {
	r.touched[b.path] = true
	if b.sync {
		r.synced[b.path] = true
	}
	r.boundaries = append(r.boundaries, boundary{n: b.n, path: b.path, sync: b.sync})
	if r.enumerate {
		r.crashAt(b)
	}
	f := r.inject(b)
	if f != noFault {
		r.faulted[b.path] = true
	}
	return f
}

// run opens the store and journal and runs ops, updating the model after
// each. It returns them open.
func (r *crashRun) run(ops []crashOp) (*Store, *AppendLog) {
	t := r.t
	s, err := openStore(r.fs, crashDir, Options{Sync: true, MaxSegmentBytes: crashSegBytes})
	if err != nil {
		t.Fatal(err)
	}
	for key := range s.index {
		v, _, err := readKey(s, key)
		if err != nil {
			t.Fatal(err)
		}
		r.keys[key] = &keyState{acked: v}
	}
	j, err := openAppendLog(r.fs, crashJournal, true) // creates the journal: a crash may fall in its directory sync
	if err != nil {
		t.Fatal(err)
	}
	r.opened = len(r.boundaries)
	for i, op := range ops {
		for _, rec := range op.recs {
			st := r.keys[rec.key]
			if st == nil {
				st = &keyState{}
				r.keys[rec.key] = st
			}
			st.maybe = append(st.maybe, rec.value)
		}
		if op.event != nil {
			r.events = append(r.events, op.event)
		}
		clear(r.touched)
		clear(r.synced)
		if err := op.do(s, j); err != nil {
			if len(r.faulted) == 0 {
				t.Fatalf("op %d failed with no fault injected: %v", i, err)
			}
			continue
		}
		segSynced := false
		for path := range r.touched {
			if r.faulted[path] {
				t.Fatalf("op %d was acknowledged after a failed write or sync on %s", i, path)
			}
		}
		for path := range r.synced {
			if m := r.fs.files[path]; m != nil { // not the directory
				r.ackedEnd[path] = len(m.data)
				segSynced = segSynced || strings.HasSuffix(path, ".seg")
			}
		}
		for _, rec := range op.recs {
			st := r.keys[rec.key]
			if op.derived {
				r.deferred[rec.key] = len(st.maybe)
			} else {
				st.acked, st.maybe = rec.value, nil
			}
		}
		if segSynced {
			// The sync covered every frame appended before it: each
			// deferred write is durable, and what was written to its key
			// before it can no longer be read back.
			for key, n := range r.deferred {
				st := r.keys[key]
				st.acked, st.maybe = st.maybe[n-1], st.maybe[n:]
			}
			clear(r.deferred)
		}
		if op.event != nil {
			r.eventsAcked = len(r.events)
		}
	}
	return s, j
}

// crashAt checks the images a crash just before boundary b leaves. Before
// a write: nothing of it, and torn prefixes of it — every whole-frame one
// and one cut inside a frame. Before a sync: everything written since the
// last one, whole, as a kill between write and fsync leaves it. Before a
// directory sync: no file created since the last one.
func (r *crashRun) crashAt(b boundary) {
	pending := r.fs.pending(b.path)
	if b.sync {
		r.check(r.fs.crash(b.path, pending), b, fmt.Sprintf("crash before sync %d of %s", b.n, b.path))
		return
	}
	r.check(r.fs.crash("", nil), b, fmt.Sprintf("crash before write %d", b.n))
	var cuts []int
	scanFrames(bytes.NewReader(b.buf), int64(len(b.buf)), func(off int64, _ byte, key, value []byte) scanEnd {
		if end := int(valueOff(off, len(key))) + len(value) + frameCRCLen; end < len(b.buf) {
			cuts = append(cuts, end)
		}
		return scanToLimit
	})
	cuts = append(cuts, 1+b.n*131%(len(b.buf)-1))
	for _, cut := range cuts {
		tail := append(slices.Clone(pending), b.buf[:cut]...)
		r.check(r.fs.crash(b.path, tail), b, fmt.Sprintf("crash inside write %d of %s, %d of %d bytes on disk", b.n, b.path, cut, len(b.buf)))
	}
}

// check reopens a crash image and holds it to the model. inflight is the
// boundary the crash fell before (n < 0: none): a write there belongs to
// what the file was meant to hold.
func (r *crashRun) check(img *faultFS, inflight boundary, what string) {
	t := r.t
	r.images++
	s, err := openStore(img, crashDir, Options{MaxSegmentBytes: crashSegBytes, CacheBytes: -1})
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	// Every acknowledged write reads back byte-equal, unless a later write
	// nobody acknowledged survived over it; nothing else is there.
	held := 0
	sets := make(map[string]map[string]category.Set) // fingerprint → id → set, from the point reads
	for key, st := range r.keys {
		got, ok, err := readKey(s, key)
		if err != nil {
			t.Fatalf("%s: reading %s: %v", what, key, err)
		}
		if !ok {
			if st.acked != nil {
				t.Fatalf("%s: acknowledged %s lost", what, key)
			}
			continue
		}
		held++
		if !(st.acked != nil && bytes.Equal(got, st.acked)) && !slices.ContainsFunc(st.maybe, func(v []byte) bool { return bytes.Equal(v, got) }) {
			t.Fatalf("%s: %s holds %d bytes nobody wrote there", what, key, len(got))
		}
		if parts := strings.Split(key, "/"); parts[0] == "r" {
			set, ok := r.sets[string(got)]
			if !ok {
				if set, err = recordSet(s.index[key].kind, got); err != nil {
					t.Fatalf("%s: %s: %v", what, key, err)
				}
				r.sets[string(got)] = set
			}
			if sets[parts[2]] == nil {
				sets[parts[2]] = make(map[string]category.Set)
			}
			sets[parts[2]][parts[1]] = set
		}
	}
	if held != len(s.index) {
		t.Fatalf("%s: the store holds %d keys, the model knows %d of them", what, len(s.index), held)
	}
	// The index rebuild's scan agrees with the point reads.
	for fp, want := range sets {
		got := make(map[string]category.Set)
		if err := s.EachResultMask(fp, func(id []byte, set category.Set) bool { got[string(id)] = set; return true }); err != nil {
			t.Fatalf("%s: EachResultMask(%s): %v", what, fp, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: EachResultMask(%s) streamed %d results, the reads find %d", what, fp, len(got), len(want))
		}
		for id, set := range want {
			if got[id] != set {
				t.Fatalf("%s: EachResultMask(%s) gives %s the set %#x, its record %#x", what, fp, id, uint64(got[id]), uint64(set))
			}
		}
	}
	// The journal replays a prefix of the appends, holding every
	// acknowledged one.
	j, err := openAppendLog(img, crashJournal, true)
	if err != nil {
		t.Fatalf("%s: reopening the journal: %v", what, err)
	}
	var replayed [][]byte
	if err := j.Replay(func(v []byte) bool { replayed = append(replayed, slices.Clone(v)); return true }); err != nil {
		t.Fatalf("%s: replay: %v", what, err)
	}
	if len(replayed) < r.eventsAcked || len(replayed) > len(r.events) || !slices.EqualFunc(replayed, r.events[:len(replayed)], bytes.Equal) {
		t.Fatalf("%s: the journal replays %d records, %d of %d appends acknowledged, or not in their order", what, len(replayed), r.eventsAcked, len(r.events))
	}
	// Every file, once recovered, is a prefix of what was written to it —
	// so an unacknowledged commit survives only as whole frames, in order
	// — and it holds all that was acknowledged.
	for path, m := range img.files {
		want := r.fs.files[path].data
		if path == inflight.path && !inflight.sync {
			want = append(slices.Clone(want[:inflight.off]), inflight.buf...)
		}
		if !bytes.HasPrefix(want, m.data) || len(m.data) < r.ackedEnd[path] {
			t.Fatalf("%s: %s recovered to %d bytes, not a prefix of the %d written or short of the %d acknowledged", what, path, len(m.data), len(want), r.ackedEnd[path])
		}
	}
	// Recovery leaves nothing for the next one to drop.
	s.Close()
	j.Close()
	s, err = openStore(img, crashDir, Options{MaxSegmentBytes: crashSegBytes, CacheBytes: -1})
	if err != nil {
		t.Fatalf("%s: second reopen: %v", what, err)
	}
	defer s.Close()
	j, err = openAppendLog(img, crashJournal, true)
	if err != nil {
		t.Fatalf("%s: second journal reopen: %v", what, err)
	}
	defer j.Close()
	if d, jd := s.Stats().DroppedTailBytes, j.DroppedTailBytes(); d != 0 || jd != 0 {
		t.Fatalf("%s: the second reopen dropped %d segment and %d journal bytes", what, d, jd)
	}
}

// readKey reads the value stored under key as it lies in the segment:
// what ReadTrace returns, and GetResultBytes for a served record. A legacy record is not converted: that is
// TestLegacyStoreReads' business.
func readKey(s *Store, key string) ([]byte, bool, error) {
	l, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	v, err := s.pread(nil, key, l)
	return v, err == nil, err
}

// TestCrashEnumeration crashes the schedule at every write and sync
// boundary, and then fails each write (short, ENOSPC) and each fsync (EIO)
// in turn, running the schedule on to its end and crashing there. Every
// image is held to the same invariants (crashRun.check); and no operation
// that wrote to or synced a log after a failure on it may be acknowledged.
func TestCrashEnumeration(t *testing.T) {
	fixture, err := os.ReadFile("testdata/legacy-store/000001.seg")
	if err != nil {
		t.Fatal(err)
	}
	ops := crashSchedule(t)
	sets := make(map[string]category.Set)
	plain := newCrashRun(t, fixture, sets)
	s, j := plain.run(ops)
	boundaries := plain.boundaries // not Close's
	dirSyncs := 0
	for _, b := range boundaries {
		if b.path == crashDir {
			dirSyncs++
		}
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("the schedule wrote %d segments, want two rolls at least", st.Segments)
	} else if dirSyncs != st.Segments { // one per rotation, one for the new journal
		t.Fatalf("%d directory syncs for %d segments and a new journal", dirSyncs, st.Segments)
	} else {
		t.Logf("%d ops, %d boundaries (%d directory syncs), %d segments", len(ops), len(boundaries), dirSyncs, st.Segments)
	}
	s.Close()
	j.Close()
	t.Run("crash", func(t *testing.T) {
		start := time.Now()
		r := newCrashRun(t, fixture, sets)
		r.enumerate = true
		s, j := r.run(ops)
		s.Close()
		j.Close()
		t.Logf("%d images, %v", r.images, time.Since(start))
	})
	for _, tc := range []struct {
		name  string
		fault fault
	}{
		{"short write", shortWrite},
		{"ENOSPC", noSpace},
		{"EIO on fsync", syncEIO},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start, runs := time.Now(), 0
			for _, at := range boundaries[plain.opened:] { // a fault while opening fails the open, not an operation
				if at.sync != (tc.fault == syncEIO) {
					continue
				}
				runs++
				r := newCrashRun(t, fixture, sets)
				r.inject = func(b boundary) fault {
					if b.n == at.n {
						return tc.fault
					}
					return noFault
				}
				s, j := r.run(ops)
				if !r.faulted[at.path] {
					t.Fatalf("boundary %d never came", at.n)
				}
				what := fmt.Sprintf("%s at boundary %d (%s), crash at the end", tc.name, at.n, at.path)
				r.check(r.fs.crash("", nil), boundary{n: -1}, what)
				for path := range r.fs.files {
					if pending := r.fs.pending(path); len(pending) > 0 {
						r.check(r.fs.crash(path, pending), boundary{n: -1}, what+", unsynced bytes of "+path+" on disk")
					}
				}
				s.Close()
				j.Close()
			}
			if runs == 0 {
				t.Fatal("no boundary to fail")
			}
			t.Logf("%d runs, %v", runs, time.Since(start))
		})
	}
}

// TestRotationFrameSurvivesCrash: the first frame acknowledged in a
// segment a rotation created survives a crash — the new segment's name
// was made durable before anything in it was acknowledged.
func TestRotationFrameSurvivesCrash(t *testing.T) {
	fs := newFaultFS()
	s, err := openStore(fs, crashDir, Options{Sync: true, MaxSegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; s.Stats().Segments < 2; i++ {
		if i > 100 {
			t.Fatal("no rotation after 100 traces")
		}
		if _, _, err := s.PutTraceBytes(encodedJob(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	last, _, err := s.PutTraceBytes(encodedJob(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if l := s.index[traceKeyOf(last)]; l.seg != 2 {
		t.Fatalf("the trace after the rotation landed in segment %d", l.seg)
	}
	img, err := openStore(fs.crash("", nil), crashDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	if !img.HasTrace(last) {
		t.Fatal("a crash lost the acknowledged first frame of the rotated-to segment")
	}
}

// TestRotationOpenFailureIsRetried: a rotation whose next segment cannot
// be opened (EMFILE, say) fails the append that triggered it and no
// more. Appends stay on the sealed segment, and the first one after the
// open succeeds again rotates and is acknowledged, with or without
// Options.Sync.
func TestRotationOpenFailureIsRetried(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", durable), func(t *testing.T) {
			fs := newFaultFS()
			s, err := openStore(fs, crashDir, Options{Sync: durable, MaxSegmentBytes: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var opens atomic.Bool
			fs.openErr = func(string) error {
				if opens.Load() {
					return nil
				}
				return syscall.EMFILE
			}
			failed := 0
			for i := 0; failed < 2; i++ {
				if i > 100 {
					t.Fatal("no rotation after 100 traces")
				}
				if _, _, err := s.PutTraceBytes(encodedJob(t, i)); err != nil {
					if !errors.Is(err, syscall.EMFILE) {
						t.Fatalf("trace %d: %v, want the failed open", i, err)
					}
					failed++
				}
			}
			if n := s.Stats().Segments; n != 1 {
				t.Fatalf("%d segments after failed rotations, want 1", n)
			}
			opens.Store(true)
			for i := 1000; i < 1002; i++ {
				id, _, err := s.PutTraceBytes(encodedJob(t, i))
				if err != nil {
					t.Fatalf("an append after the open succeeds again: %v", err)
				}
				if l := s.index[traceKeyOf(id)]; i == 1001 && l.seg != 2 {
					t.Fatalf("the trace after the rotation landed in segment %d", l.seg)
				}
			}
			if n := s.Stats().Segments; n != 2 {
				t.Fatalf("%d segments, want 2", n)
			}
		})
	}
}

// TestCloseAcksOnlyWhatItSynced: a writer whose frame waits behind an
// fsync in flight when Close's own fsync fails is not acknowledged — not
// by Close, and not by an fsync retried after it.
func TestCloseAcksOnlyWhatItSynced(t *testing.T) {
	fs := newFaultFS()
	s, err := openStore(fs, crashDir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var syncs atomic.Int32
	fs.hook = func(b boundary) fault {
		if !b.sync {
			return noFault
		}
		switch syncs.Add(1) {
		case 1: // the first writer's group commit, held until Close has failed
			close(entered)
			<-release
			return syncEIO
		case 2: // Close's
			return syncEIO
		}
		return noFault
	}
	blobA, blobB := encodedJob(t, 1), encodedJob(t, 2)
	errA, errB := make(chan error, 1), make(chan error, 1)
	go func() { _, _, err := s.PutTraceBytes(blobA); errA <- err }()
	<-entered
	go func() { _, _, err := s.PutTraceBytes(blobB); errB <- err }()
	for !s.HasTrace(HashBytes(blobB)) { // appended, and waiting behind the first fsync
		runtime.Gosched()
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close reported a failed fsync as success")
	}
	close(release)
	if err := <-errA; err == nil {
		t.Fatal("the writer whose fsync failed was acknowledged")
	}
	if err := <-errB; err == nil {
		t.Fatal("a writer was acknowledged after Close's fsync failed")
	}
}
