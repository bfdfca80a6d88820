package darshan

import (
	"errors"
	"fmt"
	"math"
)

// Validation implements step (1) of the MOSAIC workflow: opening each
// trace and checking its validity. The paper evicts "corrupted entries
// (when a deallocation happens before the end of the application's
// execution for instance)"; on the Blue Waters corpus this removed 32% of
// traces (Figure 3).

// ErrCorrupted is the sentinel wrapped by all validation failures.
var ErrCorrupted = errors.New("darshan: corrupted trace")

// CorruptionKind enumerates why a trace was rejected, so that the
// pre-processing funnel can report eviction reasons.
type CorruptionKind uint8

// Corruption kinds detected by Validate.
const (
	CorruptNone          CorruptionKind = iota
	CorruptBadHeader                    // non-positive runtime, nprocs, end before start
	CorruptBadTimestamps                // NaN/Inf or negative timestamps
	CorruptEarlyDealloc                 // record closed/deallocated before its I/O finished
	CorruptAfterEnd                     // record activity past the end of the execution
	CorruptNegativeCount                // negative counters
	CorruptInverted                     // end timestamp before start timestamp
	CorruptBadModule                    // unknown module id
)

// String implements fmt.Stringer.
func (k CorruptionKind) String() string {
	switch k {
	case CorruptNone:
		return "none"
	case CorruptBadHeader:
		return "bad_header"
	case CorruptBadTimestamps:
		return "bad_timestamps"
	case CorruptEarlyDealloc:
		return "early_deallocation"
	case CorruptAfterEnd:
		return "activity_after_end"
	case CorruptNegativeCount:
		return "negative_counter"
	case CorruptInverted:
		return "inverted_timestamps"
	case CorruptBadModule:
		return "bad_module"
	default:
		return fmt.Sprintf("CorruptionKind(%d)", uint8(k))
	}
}

// ValidationError describes a corrupted trace.
type ValidationError struct {
	Kind   CorruptionKind
	Record int // index of the offending record, -1 for header problems
	Detail string
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	if e.Record < 0 {
		return fmt.Sprintf("darshan: corrupted trace (%s): %s", e.Kind, e.Detail)
	}
	return fmt.Sprintf("darshan: corrupted trace (%s) at record %d: %s", e.Kind, e.Record, e.Detail)
}

// Unwrap lets errors.Is(err, ErrCorrupted) succeed.
func (e *ValidationError) Unwrap() error { return ErrCorrupted }

func corrupt(kind CorruptionKind, record int, format string, args ...any) error {
	return &ValidationError{Kind: kind, Record: record, Detail: fmt.Sprintf(format, args...)}
}

// tsSlack absorbs clock skew between the job header end time and per-record
// timestamps; Darshan itself tolerates small drift between rank clocks.
const tsSlack = 1.0 // seconds

// Validate checks the structural integrity of a job and returns a
// *ValidationError (wrapping ErrCorrupted) describing the first problem
// found, or nil when the trace is usable: the header rules first, then
// the records in order. InspectFile applies the same two functions in
// the same order to a trace it never materializes.
func Validate(j *Job) error {
	if j == nil {
		return corrupt(CorruptBadHeader, -1, "nil job")
	}
	if err := validateHeader(j); err != nil {
		return err
	}
	for i := range j.Records {
		if err := validateRecord(&j.Records[i], i, j.Runtime); err != nil {
			return err
		}
	}
	return nil
}

// validateHeader runs the job-level checks; it reads no record.
func validateHeader(j *Job) error {
	if j.Runtime <= 0 || math.IsNaN(j.Runtime) || math.IsInf(j.Runtime, 0) {
		return corrupt(CorruptBadHeader, -1, "runtime %g", j.Runtime)
	}
	if j.End < j.Start {
		return corrupt(CorruptBadHeader, -1, "end %d before start %d", j.End, j.Start)
	}
	if j.NProcs <= 0 {
		return corrupt(CorruptBadHeader, -1, "nprocs %d", j.NProcs)
	}
	return nil
}

// validateRecord runs the record checks in a fixed order — module,
// counters, then the open, read, write and close spans each in full,
// DXT events, early deallocation — and reports the first fault, so the
// kind a multiply-damaged record is counted under never shifts.
func validateRecord(r *FileRecord, idx int, runtime float64) error {
	if !r.Module.Valid() {
		return corrupt(CorruptBadModule, idx, "module %d", r.Module)
	}
	c := &r.C
	if c.Opens|c.Closes|c.Seeks|c.Stats|c.Reads|c.Writes|c.BytesRead|c.BytesWritten < 0 {
		for _, v := range [...]int64{c.Opens, c.Closes, c.Seeks, c.Stats, c.Reads, c.Writes, c.BytesRead, c.BytesWritten} {
			if v < 0 {
				return corrupt(CorruptNegativeCount, idx, "negative counter value %d", v)
			}
		}
	}
	if err := validateSpan(idx, "open", c.OpenStart, c.OpenEnd, c.Opens > 0, runtime); err != nil {
		return err
	}
	if err := validateSpan(idx, "read", c.ReadStart, c.ReadEnd, c.HasRead(), runtime); err != nil {
		return err
	}
	if err := validateSpan(idx, "write", c.WriteStart, c.WriteEnd, c.HasWrite(), runtime); err != nil {
		return err
	}
	if err := validateSpan(idx, "close", c.CloseStart, c.CloseEnd, c.Closes > 0, runtime); err != nil {
		return err
	}
	if err := validateDXT(r, idx, runtime); err != nil {
		return err
	}
	// Early deallocation: the file was closed before its recorded I/O
	// finished. This is the paper's canonical corruption example.
	if c.Closes > 0 {
		if c.HasRead() && c.CloseEnd < c.ReadEnd {
			return corrupt(CorruptEarlyDealloc, idx, "closed at %g before read end %g", c.CloseEnd, c.ReadEnd)
		}
		if c.HasWrite() && c.CloseEnd < c.WriteEnd {
			return corrupt(CorruptEarlyDealloc, idx, "closed at %g before write end %g", c.CloseEnd, c.WriteEnd)
		}
	}
	return nil
}

// validateSpan checks one start/end pair of a record: finite always,
// and ordered, non-negative and within the run when the record was
// active in that operation.
func validateSpan(idx int, name string, start, end float64, active bool, runtime float64) error {
	if math.IsNaN(start) || math.IsNaN(end) || math.IsInf(start, 0) || math.IsInf(end, 0) {
		return corrupt(CorruptBadTimestamps, idx, "%s timestamps not finite", name)
	}
	if !active {
		return nil
	}
	if start < 0 || end < 0 {
		return corrupt(CorruptBadTimestamps, idx, "%s timestamps negative (%g, %g)", name, start, end)
	}
	if end < start {
		return corrupt(CorruptInverted, idx, "%s end %g before start %g", name, end, start)
	}
	if end > runtime+tsSlack {
		return corrupt(CorruptAfterEnd, idx, "%s ends at %g, runtime %g", name, end, runtime)
	}
	return nil
}
