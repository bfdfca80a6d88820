package core

import (
	"encoding/json"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

// checkpointJob builds the paper's flagship example: read on start,
// periodic checkpoints, final result write.
func checkpointJob() *darshan.Job {
	j := &darshan.Job{
		JobID: 1, User: "alice", Exe: "/bin/sim", NProcs: 64,
		Start: 0, End: 7200, Runtime: 7200,
	}
	j.Records = append(j.Records, darshan.FileRecord{
		Module: darshan.ModPOSIX, Path: "/in",
		C: darshan.Counters{
			Opens: 64, Closes: 64, Seeks: 64,
			Reads: 10, BytesRead: 4 << 30,
			OpenStart: 4, OpenEnd: 5, ReadStart: 5, ReadEnd: 90,
			CloseStart: 91, CloseEnd: 92,
		},
	})
	for ts := 600.0; ts+40 < 7200; ts += 600 {
		j.Records = append(j.Records, darshan.FileRecord{
			Module: darshan.ModPOSIX, Path: "/ckpt",
			C: darshan.Counters{
				Opens: 64, Closes: 64, Seeks: 64,
				Writes: 10, BytesWritten: 1 << 30,
				OpenStart: ts - 1, OpenEnd: ts, WriteStart: ts, WriteEnd: ts + 30,
				CloseStart: ts + 31, CloseEnd: ts + 32,
			},
		})
	}
	j.Records = append(j.Records, darshan.FileRecord{
		Module: darshan.ModPOSIX, Path: "/result",
		C: darshan.Counters{
			Opens: 64, Closes: 64, Seeks: 64,
			Writes: 10, BytesWritten: 10 << 30,
			OpenStart: 7049, OpenEnd: 7050, WriteStart: 7050, WriteEnd: 7150,
			CloseStart: 7151, CloseEnd: 7152,
		},
	})
	return j
}

func TestCategorizeFlagshipExample(t *testing.T) {
	res, err := Categorize(checkpointJob(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// "A numerical simulation performing regular checkpoints throughout
	// its execution and writing a final result before finishing will be
	// identified as periodic and write on end."
	for _, want := range []category.Category{
		category.Periodic(category.DirWrite),
		category.PeriodicMagnitude(category.DirWrite, category.MagMinute),
		category.PeriodicBusy(category.DirWrite, false),
		category.Temporal(category.DirWrite, category.OnEnd),
		category.Temporal(category.DirRead, category.OnStart),
	} {
		if !res.Categories.Has(want) {
			t.Errorf("missing %q in %v", want, res.Categories)
		}
	}
	if !res.Write.Periodic() {
		t.Fatal("write direction not periodic")
	}
	if p := res.Write.DominantPeriod(); p < 500 || p > 700 {
		t.Fatalf("dominant period = %g, want ~600", p)
	}
	if res.Read.Periodic() {
		t.Fatal("read direction should not be periodic")
	}
	if len(res.Labels) != res.Categories.Len() {
		t.Fatal("Labels not synced with Categories")
	}
}

func TestCategorizeMergesDesynchronizedRanks(t *testing.T) {
	// 16 ranks writing the same phase slightly desynchronized must merge
	// into a single logical operation.
	j := &darshan.Job{
		JobID: 2, User: "bob", Exe: "/bin/x", NProcs: 16,
		Start: 0, End: 1000, Runtime: 1000,
	}
	for r := 0; r < 16; r++ {
		off := float64(r) * 0.5
		j.Records = append(j.Records, darshan.FileRecord{
			Module: darshan.ModPOSIX, Path: "/shared", Rank: int32(r),
			C: darshan.Counters{
				Opens: 1, Closes: 1, Seeks: 1,
				Writes: 5, BytesWritten: 20 << 20,
				OpenStart: 499 + off, OpenEnd: 500 + off,
				WriteStart: 500 + off, WriteEnd: 520 + off,
				CloseStart: 521 + off, CloseEnd: 522 + off,
			},
		})
	}
	res, err := Categorize(j, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Write.RawOps != 16 || res.Write.MergedOps != 1 {
		t.Fatalf("raw=%d merged=%d, want 16 -> 1", res.Write.RawOps, res.Write.MergedOps)
	}
	if res.Write.TotalBytes != 16*(20<<20) {
		t.Fatalf("merged bytes = %d", res.Write.TotalBytes)
	}
}

func TestCategorizeEmptyJob(t *testing.T) {
	j := &darshan.Job{JobID: 3, User: "c", Exe: "/bin/idle", NProcs: 8, Runtime: 100, End: 100}
	res, err := Categorize(j, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := category.NewSet(
		category.Temporal(category.DirRead, category.Insignificant),
		category.Temporal(category.DirWrite, category.Insignificant),
		category.MetaInsignificantLoad,
	)
	if !res.Categories.Equal(want) {
		t.Fatalf("categories = %v, want %v", res.Categories, want)
	}
}

func TestCategorizeIndependentDirections(t *testing.T) {
	// Significant reads + insignificant writes: directions evaluated
	// independently (a trace can be read-categorized and
	// write-insignificant at once).
	j := &darshan.Job{JobID: 4, User: "d", Exe: "/bin/r", NProcs: 8, Runtime: 1000, End: 1000}
	j.Records = append(j.Records, darshan.FileRecord{
		Module: darshan.ModPOSIX, Path: "/in",
		C: darshan.Counters{
			Reads: 10, BytesRead: 1 << 30,
			ReadStart: 10, ReadEnd: 50,
		},
	})
	j.Records = append(j.Records, darshan.FileRecord{
		Module: darshan.ModPOSIX, Path: "/log",
		C: darshan.Counters{
			Writes: 1, BytesWritten: 1 << 20,
			WriteStart: 900, WriteEnd: 910,
		},
	})
	res, err := Categorize(j, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Categories.Has(category.Temporal(category.DirRead, category.OnStart)) {
		t.Fatalf("categories = %v", res.Categories)
	}
	if !res.Categories.Has(category.Temporal(category.DirWrite, category.Insignificant)) {
		t.Fatalf("categories = %v", res.Categories)
	}
	if res.Write.Significant() || !res.Read.Significant() {
		t.Fatal("Significant() predicates wrong")
	}
}

func TestCategorizeConfigurableThreshold(t *testing.T) {
	// Lowering the significance threshold brings small traces into
	// characterization — "the threshold can be modified in MOSAIC".
	j := &darshan.Job{JobID: 5, User: "e", Exe: "/bin/s", NProcs: 2, Runtime: 1000, End: 1000}
	j.Records = append(j.Records, darshan.FileRecord{
		Module: darshan.ModPOSIX, Path: "/f",
		C: darshan.Counters{
			Writes: 1, BytesWritten: 10 << 20, // 10 MB
			WriteStart: 950, WriteEnd: 960,
		},
	})
	cfg := DefaultConfig()
	res, _ := Categorize(j, cfg)
	if !res.Categories.Has(category.Temporal(category.DirWrite, category.Insignificant)) {
		t.Fatal("10 MB should be insignificant at default threshold")
	}
	cfg.SignificanceBytes = 1 << 20
	res, _ = Categorize(j, cfg)
	if !res.Categories.Has(category.Temporal(category.DirWrite, category.OnEnd)) {
		t.Fatalf("lowered threshold: %v", res.Categories)
	}
}

func TestCategorizeClipsOutOfRangeOps(t *testing.T) {
	// A record slightly exceeding the runtime (within validation slack)
	// must be clipped, not dropped.
	j := &darshan.Job{JobID: 6, User: "f", Exe: "/bin/t", NProcs: 2, Runtime: 100, End: 100}
	j.Records = append(j.Records, darshan.FileRecord{
		Module: darshan.ModPOSIX, Path: "/f",
		C: darshan.Counters{
			Writes: 1, BytesWritten: 200 << 20,
			WriteStart: 95, WriteEnd: 100.5,
		},
	})
	if err := darshan.Validate(j); err != nil {
		t.Fatalf("job should be within slack: %v", err)
	}
	res, err := Categorize(j, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Categories.Has(category.Temporal(category.DirWrite, category.OnEnd)) {
		t.Fatalf("clipped op lost: %v", res.Categories)
	}
}

func TestResultJSONSerializable(t *testing.T) {
	res, err := Categorize(checkpointJob(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Labels) != len(res.Labels) || back.JobID != res.JobID {
		t.Fatal("JSON round trip lost data")
	}
	if back.Read.TemporalS != "on_start" {
		t.Fatalf("temporality string = %q", back.Read.TemporalS)
	}
}

func TestDominantPeriodEmpty(t *testing.T) {
	var d DirectionReport
	if d.DominantPeriod() != 0 || d.Periodic() {
		t.Fatal("empty direction report")
	}
}

func TestMeanShiftRejectsAperiodicJob(t *testing.T) {
	j := checkpointJob()
	// Strip the checkpoints, keep only start read + end write.
	j.Records = append(j.Records[:1], j.Records[len(j.Records)-1])
	res, err := Categorize(j, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Write.Periodic() {
		t.Fatal("Mean Shift flagged an aperiodic trace")
	}
}
