package darshan

import (
	"math"
	"reflect"
	"testing"
)

func dxtJob() *Job {
	j := &Job{
		JobID: 9, User: "u", Exe: "/bin/dxt", NProcs: 4,
		Start: 0, End: 1000, Runtime: 1000,
	}
	rec := FileRecord{
		Module: ModPOSIX, Path: "/stream", Rank: 0,
		C: Counters{
			Opens: 1, Closes: 1, Seeks: 1,
			Writes: 4, BytesWritten: 4000,
			OpenStart: 9, OpenEnd: 9.5,
			WriteStart: 10, WriteEnd: 910,
			CloseStart: 990, CloseEnd: 991,
		},
		DXTWrites: []DXTEvent{
			{Start: 10, End: 20, Offset: 0, Length: 1000},
			{Start: 310, End: 320, Offset: 1000, Length: 1000},
			{Start: 610, End: 620, Offset: 2000, Length: 1000},
			{Start: 900, End: 910, Offset: 3000, Length: 1000},
		},
	}
	j.Records = append(j.Records, rec)
	return j
}

func TestDXTEventValid(t *testing.T) {
	if !(DXTEvent{Start: 1, End: 2, Length: 5}).Valid() {
		t.Fatal("valid event rejected")
	}
	bad := []DXTEvent{
		{Start: 2, End: 1},
		{Start: -1, End: 1},
		{Start: math.NaN(), End: 1},
		{Start: 0, End: math.Inf(1)},
		{Start: 0, End: 1, Length: -5},
		{Start: 0, End: 1, Offset: -1},
	}
	for i, e := range bad {
		if e.Valid() {
			t.Errorf("bad event %d accepted: %v", i, e)
		}
	}
}

func TestHasDXT(t *testing.T) {
	j := dxtJob()
	if !j.HasDXT() || !j.Records[0].HasDXT() {
		t.Fatal("HasDXT false")
	}
	if sampleJob().HasDXT() {
		t.Fatal("aggregate job reports DXT")
	}
}

func TestWriteIntervalsDXTExpandsSegments(t *testing.T) {
	j := dxtJob()
	// Aggregate view: one wide interval.
	agg := j.WriteIntervals()
	if len(agg) != 1 || agg[0].Duration() != 900 {
		t.Fatalf("aggregate = %v", agg)
	}
	// DXT view: one interval per event plus the metadata carrier.
	dxt, traced := j.AppendIntervals(nil, true, true)
	if len(dxt) != 5 || !traced {
		t.Fatalf("dxt intervals = %d, want 4 events + 1 meta carrier", len(dxt))
	}
	var bytes, meta int64
	for _, iv := range dxt {
		bytes += iv.Bytes
		meta += iv.Meta
	}
	if bytes != 4000 {
		t.Fatalf("dxt bytes = %d", bytes)
	}
	if meta != 2 { // opens + seeks preserved on the carrier
		t.Fatalf("dxt meta = %d", meta)
	}
}

func TestReadIntervalsDXTFallback(t *testing.T) {
	// Records without DXT keep the aggregate interval even in DXT mode.
	j := dxtJob()
	j.Records = append(j.Records, FileRecord{
		Module: ModPOSIX, Path: "/plain",
		C: Counters{Reads: 1, BytesRead: 500, ReadStart: 5, ReadEnd: 6},
	})
	reads, traced := j.AppendIntervals(nil, false, true)
	if len(reads) != 1 || reads[0].Bytes != 500 || traced {
		t.Fatalf("fallback reads = %v", reads)
	}
}

func TestValidateDXTEvents(t *testing.T) {
	j := dxtJob()
	if err := Validate(j); err != nil {
		t.Fatalf("valid DXT job rejected: %v", err)
	}
	j.Records[0].DXTWrites[2].End = j.Records[0].DXTWrites[2].Start - 1
	if err := Validate(j); err == nil {
		t.Fatal("inverted DXT event accepted")
	}
	j = dxtJob()
	j.Records[0].DXTWrites[0].End = 5000
	if err := Validate(j); err == nil {
		t.Fatal("DXT event past runtime accepted")
	}
}

func TestDXTBinaryRoundTrip(t *testing.T) {
	j := dxtJob()
	data, err := MarshalBinary(j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j, got) {
		t.Fatalf("DXT binary round trip mismatch:\n%+v\n%+v", j, got)
	}
}

func TestDXTJSONRoundTrip(t *testing.T) {
	j := dxtJob()
	data, err := MarshalJob(j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalJob(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j, got) {
		t.Fatal("DXT JSON round trip mismatch")
	}
}

func TestDXTSummaryConsistency(t *testing.T) {
	j := dxtJob()
	bytes, span := DXTSummary(j.Records[0].DXTWrites)
	if bytes != j.Records[0].C.BytesWritten {
		t.Fatalf("DXT bytes %d != aggregate %d", bytes, j.Records[0].C.BytesWritten)
	}
	if span.Start != j.Records[0].C.WriteStart || span.End != j.Records[0].C.WriteEnd {
		t.Fatalf("DXT span %v != aggregate window", span)
	}
	if b, _ := DXTSummary(nil); b != 0 {
		t.Fatal("empty summary")
	}
}
