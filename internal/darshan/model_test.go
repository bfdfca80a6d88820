package darshan

import (
	"testing"
)

func sampleJob() *Job {
	return &Job{
		JobID:   7,
		UID:     1001,
		User:    "alice",
		Exe:     "/apps/bin/lammps -in run.in",
		NProcs:  64,
		Start:   1_550_000_000,
		End:     1_550_003_600,
		Runtime: 3600,
		Records: []FileRecord{
			{
				Module: ModPOSIX, Path: "/scratch/in.dat", Rank: SharedRank,
				C: Counters{
					Opens: 64, Closes: 64, Seeks: 64,
					Reads: 100, BytesRead: 1 << 30,
					OpenStart: 1, OpenEnd: 2, ReadStart: 2, ReadEnd: 60,
					CloseStart: 61, CloseEnd: 62,
				},
			},
			{
				Module: ModPOSIX, Path: "/scratch/out.dat", Rank: 0,
				C: Counters{
					Opens: 1, Closes: 1, Seeks: 2,
					Writes: 50, BytesWritten: 2 << 30,
					OpenStart: 3000, OpenEnd: 3001, WriteStart: 3001, WriteEnd: 3100,
					CloseStart: 3101, CloseEnd: 3102,
				},
			},
		},
		Metadata: map[string]string{"k": "v"},
	}
}

func TestModuleString(t *testing.T) {
	cases := map[Module]string{
		ModPOSIX: "POSIX", ModMPIIO: "MPI-IO", ModSTDIO: "STDIO", Module(9): "Module(9)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Module(%d).String() = %q, want %q", m, got, want)
		}
	}
	if Module(9).Valid() {
		t.Error("Module(9) should be invalid")
	}
	if !ModSTDIO.Valid() {
		t.Error("ModSTDIO should be valid")
	}
}

func TestAppName(t *testing.T) {
	j := sampleJob()
	if got := j.AppName(); got != "lammps" {
		t.Fatalf("AppName = %q, want lammps (args must be stripped)", got)
	}
	j2 := &Job{Exe: "simulation"}
	if got := j2.AppName(); got != "simulation" {
		t.Fatalf("AppName = %q", got)
	}
	if a, b := Summarize(sampleJob()), Summarize(&Job{User: "bob", Exe: "/apps/bin/lammps"}); a.App != b.App || a.User == b.User {
		t.Fatal("the same application run by different users must differ in the funnel's key by user alone")
	}
}

func TestTotals(t *testing.T) {
	j := sampleJob()
	if got := j.TotalBytesRead(); got != 1<<30 {
		t.Fatalf("TotalBytesRead = %d", got)
	}
	if got := j.TotalBytesWritten(); got != 2<<30 {
		t.Fatalf("TotalBytesWritten = %d", got)
	}
	wantMeta := int64(64+64+64) + int64(1+1+2)
	if got := j.TotalMetaOps(); got != wantMeta {
		t.Fatalf("TotalMetaOps = %d, want %d", got, wantMeta)
	}
	if j.Weight() != j.TotalBytesRead()+j.TotalBytesWritten()+j.TotalMetaOps() {
		t.Fatal("Weight mismatch")
	}
}

func TestReadWriteIntervals(t *testing.T) {
	j := sampleJob()
	reads := j.ReadIntervals()
	if len(reads) != 1 {
		t.Fatalf("reads = %d, want 1", len(reads))
	}
	if reads[0].Start != 2 || reads[0].End != 60 || reads[0].Bytes != 1<<30 {
		t.Fatalf("read interval = %v", reads[0])
	}
	if reads[0].Meta != 64+64 { // opens + seeks
		t.Fatalf("read interval meta = %d", reads[0].Meta)
	}
	writes := j.WriteIntervals()
	if len(writes) != 1 || writes[0].Start != 3001 || writes[0].Bytes != 2<<30 {
		t.Fatalf("write intervals = %v", writes)
	}
}

func TestMetaEvents(t *testing.T) {
	j := sampleJob()
	events := j.MetaEvents()
	// Each record emits an open-side and a close-side event.
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	var total int64
	for _, e := range events {
		total += e.Count
	}
	if total != j.TotalMetaOps() {
		t.Fatalf("event counts %d != total meta ops %d", total, j.TotalMetaOps())
	}
}

func TestCloneIsDeep(t *testing.T) {
	j := sampleJob()
	cp := j.Clone()
	cp.Records[0].C.BytesRead = 999
	cp.Metadata["k"] = "changed"
	if j.Records[0].C.BytesRead == 999 {
		t.Fatal("Clone shares records")
	}
	if j.Metadata["k"] == "changed" {
		t.Fatal("Clone shares metadata")
	}
}

func TestJobString(t *testing.T) {
	s := sampleJob().String()
	for _, want := range []string{"lammps", "alice", "nprocs=64"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCountersPredicates(t *testing.T) {
	var c Counters
	if c.HasRead() || c.HasWrite() {
		t.Fatal("zero counters should have no activity")
	}
	c.BytesRead = 1
	if !c.HasRead() {
		t.Fatal("BytesRead > 0 should imply HasRead")
	}
	c2 := Counters{Writes: 1}
	if !c2.HasWrite() {
		t.Fatal("Writes > 0 should imply HasWrite")
	}
}
