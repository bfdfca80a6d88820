package darshan

import (
	"fmt"
	"math"

	"github.com/mosaic-hpc/mosaic/internal/interval"
)

// DXT (Darshan eXtended Tracing) support. The Blue Waters corpus was
// collected with DXT disabled, which is why the paper's traces aggregate
// all activity between a file's open and close — and why MOSAIC must
// categorize an application that keeps files open while checkpointing as
// "steady" even though it is periodic (Section IV-A). When DXT is
// available, each record additionally carries the individual read/write
// segments, and the hidden periodicity becomes detectable. This file
// models DXT segments; the dxt experiment quantifies the caveat.

// DXTEvent is one traced I/O segment: a single read or write with its
// file offset and length, timed individually.
type DXTEvent struct {
	Start  float64 // seconds since job start
	End    float64 // seconds since job start
	Offset int64   // file offset in bytes
	Length int64   // transfer size in bytes
}

// Valid reports whether the event is well formed.
func (e DXTEvent) Valid() bool {
	if math.IsNaN(e.Start) || math.IsNaN(e.End) || math.IsInf(e.Start, 0) || math.IsInf(e.End, 0) {
		return false
	}
	return e.End >= e.Start && e.Start >= 0 && e.Offset >= 0 && e.Length >= 0
}

// HasDXT reports whether the record carries extended tracing data.
func (r *FileRecord) HasDXT() bool { return len(r.DXTReads) > 0 || len(r.DXTWrites) > 0 }

// HasDXT reports whether any record of the job carries extended tracing.
func (j *Job) HasDXT() bool {
	for i := range j.Records {
		if j.Records[i].HasDXT() {
			return true
		}
	}
	return false
}

// validateDXT checks the extended events of a record. Called from
// validateRecord.
func validateDXT(r *FileRecord, idx int, runtime float64) error {
	check := func(events []DXTEvent, kind string) error {
		var sum int64
		for k, e := range events {
			if !e.Valid() {
				return corrupt(CorruptBadTimestamps, idx, "DXT %s event %d malformed", kind, k)
			}
			if e.End > runtime+tsSlack {
				return corrupt(CorruptAfterEnd, idx, "DXT %s event %d ends at %g, runtime %g", kind, k, e.End, runtime)
			}
			sum += e.Length
		}
		return nil
	}
	if err := check(r.DXTReads, "read"); err != nil {
		return err
	}
	return check(r.DXTWrites, "write")
}

// DXTSummary aggregates DXT events back into the classic counters; used
// by tests to assert consistency between the two views of a record.
func DXTSummary(events []DXTEvent) (bytes int64, span interval.Interval) {
	if len(events) == 0 {
		return 0, interval.Interval{}
	}
	span = interval.Interval{Start: math.Inf(1), End: math.Inf(-1)}
	for _, e := range events {
		bytes += e.Length
		if e.Start < span.Start {
			span.Start = e.Start
		}
		if e.End > span.End {
			span.End = e.End
		}
	}
	return bytes, span
}

// String implements fmt.Stringer.
func (e DXTEvent) String() string {
	return fmt.Sprintf("[%.3f, %.3f) off=%d len=%d", e.Start, e.End, e.Offset, e.Length)
}
