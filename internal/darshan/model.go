// Package darshan implements a Darshan-compatible data model for HPC I/O
// traces, together with binary and JSON codecs and corpus utilities.
//
// Darshan (Carns et al., "24/7 characterization of petascale I/O
// workloads") aggregates the I/O activity of an application between the
// opening and the closing of each file: one record per (file, rank) with
// operation counters and coarse timing counters. The Blue Waters dataset
// used by the MOSAIC paper was collected with the DXT module disabled, so
// this aggregated view is exactly the information available to the
// categorization algorithms. This package reproduces that model: it is the
// substrate the rest of the repository consumes.
package darshan

import (
	"fmt"
	"math"
	"path"
	"strings"

	"github.com/mosaic-hpc/mosaic/internal/interval"
)

// Module identifies the I/O API that produced a file record.
type Module uint8

// Supported Darshan modules.
const (
	ModPOSIX Module = iota
	ModMPIIO
	ModSTDIO
	modCount // sentinel
)

// String implements fmt.Stringer.
func (m Module) String() string {
	switch m {
	case ModPOSIX:
		return "POSIX"
	case ModMPIIO:
		return "MPI-IO"
	case ModSTDIO:
		return "STDIO"
	default:
		return fmt.Sprintf("Module(%d)", uint8(m))
	}
}

// Valid reports whether m names a known module.
func (m Module) Valid() bool { return m < modCount }

// SharedRank is the rank value Darshan uses for records aggregated across
// all ranks of the job (shared files).
const SharedRank = -1

// Counters mirrors the subset of Darshan's POSIX counter set that MOSAIC
// consumes. Volumes are bytes; timestamps are float64 seconds relative to
// the start of the job, following Darshan's F_*_START_TIMESTAMP /
// F_*_END_TIMESTAMP semantics. A timestamp pair (0, 0) means "no such
// operation happened on this record".
type Counters struct {
	Opens  int64 // POSIX_OPENS
	Closes int64 // implicit in Darshan; tracked explicitly here
	Seeks  int64 // POSIX_SEEKS
	Stats  int64 // POSIX_STATS
	Reads  int64 // POSIX_READS
	Writes int64 // POSIX_WRITES

	BytesRead    int64 // POSIX_BYTES_READ
	BytesWritten int64 // POSIX_BYTES_WRITTEN

	OpenStart  float64 // POSIX_F_OPEN_START_TIMESTAMP
	OpenEnd    float64 // POSIX_F_OPEN_END_TIMESTAMP
	ReadStart  float64 // POSIX_F_READ_START_TIMESTAMP
	ReadEnd    float64 // POSIX_F_READ_END_TIMESTAMP
	WriteStart float64 // POSIX_F_WRITE_START_TIMESTAMP
	WriteEnd   float64 // POSIX_F_WRITE_END_TIMESTAMP
	CloseStart float64 // POSIX_F_CLOSE_START_TIMESTAMP
	CloseEnd   float64 // POSIX_F_CLOSE_END_TIMESTAMP
}

// MetaOps returns the number of metadata requests carried by the record:
// OPEN, CLOSE, SEEK and STAT operations. The paper additionally assumes
// every OPEN is accompanied by a SEEK (Darshan does not time SEEKs), which
// is applied at interval-extraction time, not here.
func (c *Counters) MetaOps() int64 { return c.Opens + c.Closes + c.Seeks + c.Stats }

// HasRead reports whether the record carries read activity.
func (c *Counters) HasRead() bool { return c.Reads > 0 || c.BytesRead > 0 }

// HasWrite reports whether the record carries write activity.
func (c *Counters) HasWrite() bool { return c.Writes > 0 || c.BytesWritten > 0 }

// FileRecord is the per-(file, rank) aggregation unit of a Darshan log.
type FileRecord struct {
	Module Module
	Path   string // file path as recorded (may be anonymized/hashed upstream)
	Rank   int32  // MPI rank, or SharedRank for cross-rank records
	C      Counters

	// DXT extended tracing segments, present only when the log was
	// collected with the DXT module enabled (empty on Blue-Waters-style
	// corpora). See dxt.go.
	DXTReads  []DXTEvent
	DXTWrites []DXTEvent
}

// Job is one Darshan log: a single execution of an application.
type Job struct {
	JobID    uint64
	UID      uint32
	User     string
	Exe      string  // full executable path with arguments stripped
	NProcs   int32   // number of MPI ranks
	Start    int64   // job start, unix seconds
	End      int64   // job end, unix seconds
	Runtime  float64 // seconds; authoritative over End-Start for sub-second runs
	Records  []FileRecord
	Metadata map[string]string // free-form annotations (generator ground truth, ...)
}

// AppName derives the application identity used for deduplication: the
// base name of the executable. The paper groups runs by (user,
// application) — Summary's User and App — and assumes all runs of an
// application by a user share I/O behaviour (Section III-B1).
func (j *Job) AppName() string {
	exe := j.Exe
	if i := strings.IndexByte(exe, ' '); i >= 0 {
		exe = exe[:i]
	}
	return path.Base(exe)
}

// TotalBytesRead sums read volume across all records.
func (j *Job) TotalBytesRead() int64 {
	var n int64
	for i := range j.Records {
		n += j.Records[i].C.BytesRead
	}
	return n
}

// TotalBytesWritten sums write volume across all records.
func (j *Job) TotalBytesWritten() int64 {
	var n int64
	for i := range j.Records {
		n += j.Records[i].C.BytesWritten
	}
	return n
}

// TotalMetaOps sums metadata requests across all records.
func (j *Job) TotalMetaOps() int64 {
	var n int64
	for i := range j.Records {
		n += j.Records[i].C.MetaOps()
	}
	return n
}

// Weight is the record's share of its job's I/O intensity: bytes moved
// plus one per metadata request, so that metadata-only jobs still rank.
// The sum saturates: counters are attacker-supplied int64s of which only
// negatives are rejected, and a wrapped weight would rank the heaviest
// run of an application below every other.
func (c *Counters) Weight() int64 {
	w := addWeight(c.BytesRead, c.BytesWritten)
	for _, v := range [...]int64{c.Opens, c.Closes, c.Seeks, c.Stats} {
		w = addWeight(w, v)
	}
	return w
}

// addWeight is a + b clamped to the int64 range — the one accumulate
// behind every weight sum (Counters.Weight, Job.Weight, the in-buffer
// walk of InspectFile).
func addWeight(a, b int64) int64 {
	s := a + b
	if (a^s)&(b^s) < 0 { // both operands have the sign the sum lacks
		if a < 0 {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	return s
}

// Weight is the I/O intensity used to select the heaviest run of an
// application during deduplication: the saturating sum of its records'
// weights.
func (j *Job) Weight() int64 {
	var w int64
	for i := range j.Records {
		w = addWeight(w, j.Records[i].C.Weight())
	}
	return w
}

// AppendIntervals appends the job's read (or, with write set, write)
// operations to dst and returns it. Each record active in the direction
// contributes one interval spanning its aggregate window and carrying its
// volume; metadata requests are attributed to the operation (paper: SEEKs
// co-located with OPENs). With dxt set, a record carrying DXT segments for
// the direction contributes one interval per traced segment instead, plus
// a zero-length carrier at its open time so the open/seek requests are not
// lost to the merge totals; traced reports whether any record did.
func (j *Job) AppendIntervals(dst []interval.Interval, write, dxt bool) (_ []interval.Interval, traced bool) {
	for i := range j.Records {
		r := &j.Records[i]
		c := &r.C
		events, active := r.DXTReads, c.HasRead()
		agg := interval.Interval{Start: c.ReadStart, End: c.ReadEnd, Bytes: c.BytesRead}
		if write {
			events, active = r.DXTWrites, c.HasWrite()
			agg = interval.Interval{Start: c.WriteStart, End: c.WriteEnd, Bytes: c.BytesWritten}
		}
		agg.Meta = c.Opens + c.Seeks
		switch {
		case dxt && len(events) > 0:
			traced = true
			for _, e := range events {
				dst = append(dst, interval.Interval{Start: e.Start, End: e.End, Bytes: e.Length})
			}
			if agg.Meta > 0 {
				dst = append(dst, interval.Interval{Start: c.OpenStart, End: c.OpenStart, Meta: agg.Meta})
			}
		case active:
			dst = append(dst, agg)
		}
	}
	return dst, traced
}

// ReadIntervals extracts the read operations of the job from the
// aggregate counters alone.
func (j *Job) ReadIntervals() []interval.Interval {
	out, _ := j.AppendIntervals(nil, false, false)
	return out
}

// WriteIntervals extracts the write operations of the job from the
// aggregate counters alone.
func (j *Job) WriteIntervals() []interval.Interval {
	out, _ := j.AppendIntervals(nil, true, false)
	return out
}

// MetaEvent is one metadata burst: Count requests at Time.
type MetaEvent struct {
	Time  float64
	Count int64
}

// MetaBursts returns the record's two metadata bursts. Darshan does not
// time individual metadata calls, so the paper attributes a record's
// OPEN/SEEK (and STAT) requests to the open timestamp and its CLOSE
// requests to the close timestamp. A burst with Count 0 did not happen.
func (c *Counters) MetaBursts() (atOpen, atClose MetaEvent) {
	return MetaEvent{Time: c.OpenStart, Count: c.Opens + c.Seeks + c.Stats},
		MetaEvent{Time: c.CloseStart, Count: c.Closes}
}

// MetaEvents extracts metadata request events ordered arbitrarily.
func (j *Job) MetaEvents() []MetaEvent {
	out := make([]MetaEvent, 0, 2*len(j.Records))
	for i := range j.Records {
		atOpen, atClose := j.Records[i].C.MetaBursts()
		if atOpen.Count > 0 {
			out = append(out, atOpen)
		}
		if atClose.Count > 0 {
			out = append(out, atClose)
		}
	}
	return out
}

// Clone returns a deep copy of the job.
func (j *Job) Clone() *Job {
	cp := *j
	cp.Records = make([]FileRecord, len(j.Records))
	copy(cp.Records, j.Records)
	if j.Metadata != nil {
		cp.Metadata = make(map[string]string, len(j.Metadata))
		for k, v := range j.Metadata {
			cp.Metadata[k] = v
		}
	}
	return &cp
}

// String implements fmt.Stringer with a compact one-line summary.
func (j *Job) String() string {
	return fmt.Sprintf("job %d app=%s user=%s nprocs=%d runtime=%.1fs records=%d read=%dB written=%dB",
		j.JobID, j.AppName(), j.User, j.NProcs, j.Runtime, len(j.Records),
		j.TotalBytesRead(), j.TotalBytesWritten())
}
