// Package gen synthesizes Darshan-like traces with ground-truth labels.
//
// The MOSAIC paper evaluates on the 2019 Blue Waters corpus, which is not
// redistributable here and whose manual-validation labels were never
// published. This package substitutes a workload generator that emits the
// I/O motifs the paper (and the survey it cites, Bez et al. 2023) reports
// in production HPC applications: input reading at start, result writing
// at end, periodic checkpointing, steady streaming with files held open,
// metadata storms, rank desynchronization, repeated executions of the same
// application, and trace corruption. Every synthetic trace carries its
// intended category set in the job metadata, which makes the paper's
// manual-sampling accuracy protocol (Section IV-E) machine-checkable.
package gen

import (
	"math"
	"math/rand"
	"strconv"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

// TruthKey is the job-metadata key under which the generator stores the
// intended categories (category.Set encoded with Set.String).
const TruthKey = "mosaic.truth"

// TruthPeriodKey stores the intended checkpoint period in seconds for
// periodic archetypes.
const TruthPeriodKey = "mosaic.truth.period"

// ArchetypeKey stores the archetype name that generated the trace.
const ArchetypeKey = "mosaic.archetype"

// Truth extracts the ground-truth category set from a generated job: the
// empty set when the job carries no truth annotation.
func Truth(j *darshan.Job) category.Set {
	return category.ParseSet(j.Metadata[TruthKey])
}

// Builder assembles one synthetic trace from I/O phases. All times are
// seconds from job start.
//
// Record paths are not strings until Job: each one is appended to paths
// and noted in pathOf, and Job cuts them all from one string the job
// owns, as the decoder does.
type Builder struct {
	job    *darshan.Job
	rng    *rand.Rand
	truth  category.Set
	files  int    // counter for distinct synthetic file paths
	paths  []byte // every path handed out so far, back to back
	pathOf []pathRef
	cut    int // pathOf entries Job has already turned into Record.Path
}

// pathRef places records[rec].Path at paths[off:end].
type pathRef struct{ rec, off, end int32 }

// maxPathLen bounds one nextPath result for a user name of n bytes:
// "/scratch/" + user + "/" + the longest prefix, "stream", + "." + six
// digits.
func maxPathLen(n int) int { return len("/scratch/") + n + len("/stream.") + 6 }

// NewBuilder starts a trace for one execution.
func NewBuilder(rng *rand.Rand, user, exe string, jobID uint64, ranks int32, runtime float64) *Builder {
	return newBuilder(rng, user, exe, jobID, ranks, runtime, 0)
}

// newBuilder is NewBuilder with room for records file records made up
// front, so that a trace of that size is built without regrowing.
func newBuilder(rng *rand.Rand, user, exe string, jobID uint64, ranks int32, runtime float64, records int) *Builder {
	start := int64(1546300800) + rng.Int63n(365*24*3600) // within 2019, like the dataset
	b := &Builder{
		job: &darshan.Job{
			JobID:    jobID,
			UID:      uint32(1000 + hashString(user)%9000),
			User:     user,
			Exe:      exe,
			NProcs:   ranks,
			Start:    start,
			End:      start + int64(math.Ceil(runtime)),
			Runtime:  runtime,
			Metadata: make(map[string]string, 3),
		},
		rng: rng,
	}
	if records > 0 {
		b.job.Records = make([]darshan.FileRecord, 0, records)
		b.paths = make([]byte, 0, records*maxPathLen(len(user)))
		b.pathOf = make([]pathRef, 0, records)
	}
	return b
}

func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// Label records intended categories in the ground truth.
func (b *Builder) Label(cs ...category.Category) { b.truth.Add(cs...) }

// Annotate stores an extra metadata key/value on the job.
func (b *Builder) Annotate(key, value string) { b.job.Metadata[key] = value }

// Runtime returns the job runtime.
func (b *Builder) Runtime() float64 { return b.job.Runtime }

// Rng exposes the builder's random source for archetype-level decisions.
func (b *Builder) Rng() *rand.Rand { return b.rng }

// nextPath appends the next distinct path, /scratch/<user>/<prefix>.<n>
// with n zero-padded to six digits, and returns where it sits in paths.
func (b *Builder) nextPath(prefix string) pathRef {
	b.files++
	off := len(b.paths)
	b.paths = append(b.paths, "/scratch/"...)
	b.paths = append(b.paths, b.job.User...)
	b.paths = append(b.paths, '/')
	b.paths = append(b.paths, prefix...)
	b.paths = append(b.paths, '.')
	for d := 100000; d > 1 && b.files < d; d /= 10 {
		b.paths = append(b.paths, '0')
	}
	b.paths = strconv.AppendInt(b.paths, int64(b.files), 10)
	return pathRef{off: int32(off), end: int32(len(b.paths))}
}

// addRecord appends rec, whose path is p, to the job.
func (b *Builder) addRecord(rec darshan.FileRecord, p pathRef) {
	p.rec = int32(len(b.job.Records))
	b.job.Records = append(b.job.Records, rec)
	b.pathOf = append(b.pathOf, p)
}

// clampT keeps a timestamp within [0, runtime].
func (b *Builder) clampT(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t > b.job.Runtime {
		return b.job.Runtime
	}
	return t
}

// BurstSpec describes one I/O phase executed by a set of ranks.
type BurstSpec struct {
	At       float64        // phase start, seconds
	Duration float64        // phase duration, seconds (per rank)
	Bytes    int64          // total bytes across all participating records
	Records  int            // number of file records emitted (≈ participating ranks)
	Desync   float64        // max per-record start jitter as a fraction of Duration
	Write    bool           // write phase (false: read)
	Shared   bool           // all records target the same shared file
	SeeksPer int64          // extra SEEKs per record beyond the implicit one
	Module   darshan.Module // I/O API of the records (default POSIX)
}

// Burst emits the records of one I/O phase. All ranks OPEN together at the
// phase start (the usual collective-open pattern, and what concentrates
// metadata requests into spikes); each record's transfer window then
// starts with its own desynchronization jitter and the CLOSE follows the
// transfer end. Desynchronization exercises MOSAIC's concurrent-operation
// merging without smearing the open spike.
func (b *Builder) Burst(s BurstSpec) {
	if s.Records <= 0 {
		s.Records = 1
	}
	if s.Duration <= 0 {
		s.Duration = 0.001
	}
	perRec := s.Bytes / int64(s.Records)
	rem := s.Bytes - perRec*int64(s.Records)
	prefix := "in"
	if s.Write {
		prefix = "out"
	}
	var sharedPath pathRef
	if s.Shared {
		sharedPath = b.nextPath(prefix)
	}
	for r := 0; r < s.Records; r++ {
		jitter := 0.0
		if s.Desync > 0 {
			jitter = b.rng.Float64() * s.Desync * s.Duration
		}
		start := b.clampT(s.At + jitter)
		end := b.clampT(start + s.Duration)
		if end <= start {
			end = b.clampT(start + 0.001)
		}
		bytes := perRec
		if r == 0 {
			bytes += rem
		}
		path := sharedPath
		if !s.Shared {
			path = b.nextPath(prefix)
		}
		rec := darshan.FileRecord{
			Module: s.Module,
			Rank:   int32(r % int(b.job.NProcs)),
			C: darshan.Counters{
				Opens:      1,
				Closes:     1,
				Seeks:      1 + s.SeeksPer,
				OpenStart:  b.clampT(s.At - 0.01),
				OpenEnd:    b.clampT(s.At),
				CloseStart: end,
				CloseEnd:   b.clampT(end + 0.01),
			},
		}
		if s.Write {
			rec.C.Writes = max64(1, bytes/(1<<20))
			rec.C.BytesWritten = bytes
			rec.C.WriteStart = start
			rec.C.WriteEnd = end
		} else {
			rec.C.Reads = max64(1, bytes/(1<<20))
			rec.C.BytesRead = bytes
			rec.C.ReadStart = start
			rec.C.ReadEnd = end
		}
		b.addRecord(rec, path)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Steady emits one whole-run record per participating rank: the file is
// opened near the start and closed near the end, with the transfer window
// spanning almost the entire execution. This reproduces the Blue Waters
// Darshan caveat (Section IV-A): activity aggregated between open and
// close collapses to a single interval and is categorized steady, even if
// the underlying accesses were periodic.
func (b *Builder) Steady(write bool, totalBytes int64, records int) {
	rt := b.job.Runtime
	b.Burst(BurstSpec{
		At:       0.005 * rt,
		Duration: 0.985 * rt,
		Bytes:    totalBytes,
		Records:  records,
		Desync:   0.01, // spreads the CLOSEs so only the collective OPEN spikes
		Write:    write,
	})
}

// PeriodicSpec describes a checkpoint-style periodic phase train.
type PeriodicSpec struct {
	Period    float64 // seconds between phase starts
	PhaseFrac float64 // phase duration as a fraction of the period (busy ratio)
	BytesPer  int64   // bytes per phase (across all records)
	Records   int     // records per phase
	Jitter    float64 // relative jitter on the period (e.g. 0.02)
	Write     bool
	StartAt   float64 // first phase start (default: one period in)
}

// Periodic emits a train of equally spaced bursts covering the run. It
// returns the number of phases emitted.
func (b *Builder) Periodic(s PeriodicSpec) int {
	rt := b.job.Runtime
	if s.Period <= 0 || s.Period >= rt {
		return 0
	}
	if s.PhaseFrac <= 0 {
		s.PhaseFrac = 0.05
	}
	at := s.StartAt
	if at <= 0 {
		at = s.Period * 0.5
	}
	n := 0
	for ; at+s.Period*s.PhaseFrac < rt; at += s.Period {
		t := at
		if s.Jitter > 0 {
			t += (b.rng.Float64()*2 - 1) * s.Jitter * s.Period
		}
		b.Burst(BurstSpec{
			At:       b.clampT(t),
			Duration: s.Period * s.PhaseFrac,
			Bytes:    jitterBytes(b.rng, s.BytesPer, 0.05),
			Records:  s.Records,
			Desync:   0.1,
			Write:    s.Write,
		})
		n++
	}
	return n
}

func jitterBytes(rng *rand.Rand, base int64, rel float64) int64 {
	if base <= 0 {
		return base
	}
	f := 1 + (rng.Float64()*2-1)*rel
	v := int64(float64(base) * f)
	if v < 1 {
		v = 1
	}
	return v
}

// MetadataStorm emits metadata-only records spread over [from, to]: each
// record represents a rank churning through small file opens, with
// requests landing at the record's open timestamp.
func (b *Builder) MetadataStorm(from, to float64, records int, requestsPer int64) {
	if records <= 0 || to <= from {
		return
	}
	step := (to - from) / float64(records)
	for r := 0; r < records; r++ {
		t := b.clampT(from + (float64(r)+b.rng.Float64()*0.5)*step)
		rec := darshan.FileRecord{
			Module: darshan.ModPOSIX,
			Rank:   int32(r % int(b.job.NProcs)),
			C: darshan.Counters{
				Opens:      requestsPer / 2,
				Closes:     requestsPer / 2,
				Seeks:      requestsPer - 2*(requestsPer/2),
				OpenStart:  t,
				OpenEnd:    b.clampT(t + 0.01),
				CloseStart: b.clampT(t + 0.5),
				CloseEnd:   b.clampT(t + 0.51),
			},
		}
		b.addRecord(rec, b.nextPath("meta"))
	}
}

// Job finalizes the trace: the ground-truth annotation is serialized into
// the metadata, the paths of the records added since the last call are
// cut from one new string, and the assembled job is returned. Building
// may go on after Job; the next call finalizes what was added.
func (b *Builder) Job() *darshan.Job {
	b.job.Metadata[TruthKey] = b.truth.String()
	if b.cut < len(b.pathOf) {
		all := string(b.paths)
		for _, p := range b.pathOf[b.cut:] {
			if int(p.rec) < len(b.job.Records) {
				b.job.Records[p.rec].Path = all[p.off:p.end]
			}
		}
		b.cut = len(b.pathOf)
	}
	return b.job
}
