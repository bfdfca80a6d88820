package darshan

import (
	"errors"
	"math"
	"testing"
)

func TestValidateAcceptsSample(t *testing.T) {
	if err := Validate(sampleJob()); err != nil {
		t.Fatalf("sample job should validate: %v", err)
	}
}

func TestValidateHeader(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Job)
		kind   CorruptionKind
	}{
		{"nil runtime", func(j *Job) { j.Runtime = 0 }, CorruptBadHeader},
		{"negative runtime", func(j *Job) { j.Runtime = -5 }, CorruptBadHeader},
		{"nan runtime", func(j *Job) { j.Runtime = math.NaN() }, CorruptBadHeader},
		{"inf runtime", func(j *Job) { j.Runtime = math.Inf(1) }, CorruptBadHeader},
		{"end before start", func(j *Job) { j.End = j.Start - 1 }, CorruptBadHeader},
		{"zero nprocs", func(j *Job) { j.NProcs = 0 }, CorruptBadHeader},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j := sampleJob()
			c.mutate(j)
			err := Validate(j)
			if err == nil {
				t.Fatal("expected validation failure")
			}
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("error %v is not a ValidationError", err)
			}
			if verr.Kind != c.kind {
				t.Fatalf("kind = %v, want %v", verr.Kind, c.kind)
			}
			if !errors.Is(err, ErrCorrupted) {
				t.Fatal("a validation error should wrap ErrCorrupted")
			}
		})
	}
	if Validate(nil) == nil {
		t.Fatal("nil job must be rejected")
	}
}

func TestValidateRecords(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Job)
		kind   CorruptionKind
	}{
		{"bad module", func(j *Job) { j.Records[0].Module = Module(99) }, CorruptBadModule},
		{"negative bytes", func(j *Job) { j.Records[0].C.BytesRead = -1 }, CorruptNegativeCount},
		{"negative opens", func(j *Job) { j.Records[0].C.Opens = -3 }, CorruptNegativeCount},
		{"nan timestamp", func(j *Job) { j.Records[0].C.ReadStart = math.NaN() }, CorruptBadTimestamps},
		{"negative timestamp", func(j *Job) { j.Records[0].C.ReadStart = -4 }, CorruptBadTimestamps},
		{"inverted read", func(j *Job) { j.Records[0].C.ReadEnd = 1 }, CorruptInverted},
		{"activity after end", func(j *Job) { j.Records[1].C.WriteEnd = 9999 }, CorruptAfterEnd},
		{
			// The paper's canonical corruption: deallocation before the
			// end of the record's I/O.
			"early deallocation",
			func(j *Job) { j.Records[1].C.CloseStart, j.Records[1].C.CloseEnd = 3050, 3051 },
			CorruptEarlyDealloc,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j := sampleJob()
			c.mutate(j)
			err := Validate(j)
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("expected ValidationError, got %v", err)
			}
			if verr.Kind != c.kind {
				t.Fatalf("kind = %v, want %v (%v)", verr.Kind, c.kind, err)
			}
			if verr.Record < 0 {
				t.Fatal("record index should be set for record problems")
			}
		})
	}
}

func TestValidateTimestampSlack(t *testing.T) {
	// Activity up to tsSlack past the end is tolerated (clock skew).
	j := sampleJob()
	j.Records[1].C.WriteEnd = j.Runtime + tsSlack/2
	j.Records[1].C.CloseStart = j.Records[1].C.WriteEnd
	j.Records[1].C.CloseEnd = j.Records[1].C.WriteEnd + 0.1
	if err := Validate(j); err != nil {
		t.Fatalf("slack not honored: %v", err)
	}
}

func TestValidateInactivePairsIgnored(t *testing.T) {
	// A record with no read activity may carry zero read timestamps.
	j := sampleJob()
	j.Records[1].C.ReadStart, j.Records[1].C.ReadEnd = 0, 0
	if err := Validate(j); err != nil {
		t.Fatalf("inactive timestamps should be ignored: %v", err)
	}
}

func TestValidationErrorMessage(t *testing.T) {
	err := &ValidationError{Kind: CorruptEarlyDealloc, Record: 3, Detail: "closed early"}
	if !contains(err.Error(), "early_deallocation") || !contains(err.Error(), "record 3") {
		t.Fatalf("unhelpful error: %q", err.Error())
	}
	hdr := &ValidationError{Kind: CorruptBadHeader, Record: -1, Detail: "x"}
	if contains(hdr.Error(), "record") {
		t.Fatalf("header error should not mention a record: %q", hdr.Error())
	}
}

func TestCorruptionKindString(t *testing.T) {
	kinds := []CorruptionKind{
		CorruptNone, CorruptBadHeader, CorruptBadTimestamps, CorruptEarlyDealloc,
		CorruptAfterEnd, CorruptNegativeCount, CorruptInverted, CorruptBadModule,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate kind string %q", s)
		}
		seen[s] = true
	}
	if CorruptionKind(200).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

// TestValidateFirstFaultWins pins which kind a record with several
// faults is reported — and so counted in FunnelStats.ByReason — under:
// the checks run module, counters, then the open, read, write and close
// spans each in full, DXT events, early deallocation.
func TestValidateFirstFaultWins(t *testing.T) {
	// Record 1 of the sample writes from 3001 to 3100 and closes at 3102.
	badModule := func(j *Job) { j.Records[1].Module = Module(99) }
	negativeBytes := func(j *Job) { j.Records[1].C.BytesWritten = -1 }
	nanRead := func(j *Job) { j.Records[1].C.ReadStart = math.NaN() } // an inactive span
	negativeOpen := func(j *Job) { j.Records[1].C.OpenStart = -1 }
	invertedOpen := func(j *Job) { j.Records[1].C.OpenStart, j.Records[1].C.OpenEnd = 3001, 3000 }
	invertedWrite := func(j *Job) { j.Records[1].C.WriteStart = 20000 }
	lateOpen := func(j *Job) { j.Records[1].C.OpenEnd = 9999 }
	lateWrite := func(j *Job) { j.Records[1].C.WriteEnd = 9999 }
	lateClose := func(j *Job) { j.Records[1].C.CloseEnd = 9999 }
	badDXT := func(j *Job) { j.Records[1].DXTWrites = []DXTEvent{{Start: 2, End: 1, Length: 1}} }
	lateDXT := func(j *Job) { j.Records[1].DXTWrites = []DXTEvent{{Start: 1, End: 9999, Length: 1}} }
	earlyClose := func(j *Job) { j.Records[1].C.CloseStart, j.Records[1].C.CloseEnd = 3050, 3051 }

	for _, tc := range []struct {
		name   string
		faults []func(*Job)
		kind   CorruptionKind
	}{
		{"module before counters", []func(*Job){badModule, negativeBytes}, CorruptBadModule},
		{"counters before spans", []func(*Job){negativeBytes, nanRead, invertedOpen}, CorruptNegativeCount},
		{"open span in full before the read span", []func(*Job){invertedOpen, nanRead}, CorruptInverted},
		{"late open before a non-finite read", []func(*Job){lateOpen, nanRead}, CorruptAfterEnd},
		{"non-finite inactive read before the write span", []func(*Job){nanRead, invertedWrite}, CorruptBadTimestamps},
		{"negative before inverted within a span", []func(*Job){negativeOpen, lateOpen}, CorruptBadTimestamps},
		{"inverted before late within a span", []func(*Job){invertedWrite, lateWrite}, CorruptInverted},
		{"write span before close span", []func(*Job){lateWrite, earlyClose}, CorruptAfterEnd},
		{"spans before DXT", []func(*Job){lateClose, badDXT}, CorruptAfterEnd},
		{"malformed DXT before early deallocation", []func(*Job){badDXT, earlyClose}, CorruptBadTimestamps},
		{"late DXT before early deallocation", []func(*Job){lateDXT, earlyClose}, CorruptAfterEnd},
		{"early deallocation last", []func(*Job){earlyClose}, CorruptEarlyDealloc},
	} {
		j := sampleJob()
		for _, fault := range tc.faults {
			fault(j)
		}
		var verr *ValidationError
		if err := Validate(j); !errors.As(err, &verr) || verr.Kind != tc.kind || verr.Record != 1 {
			t.Errorf("%s: %v, want kind %v at record 1", tc.name, err, tc.kind)
		}
	}

	// Among negative counters the first in field order is the one named.
	j := sampleJob()
	j.Records[0].C.BytesRead, j.Records[0].C.Seeks = -7, -3
	if err := Validate(j); err == nil || !contains(err.Error(), "value -3") {
		t.Errorf("two negative counters: %v, want the report to name -3", err)
	}
}
