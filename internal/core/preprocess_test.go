package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

func validJob(user, exe string, id uint64, weight int64) *darshan.Job {
	return &darshan.Job{
		JobID: id, User: user, Exe: exe, NProcs: 4, Runtime: 100, Start: 0, End: 100,
		Records: []darshan.FileRecord{{
			Module: darshan.ModPOSIX, Path: "/x",
			C: darshan.Counters{
				Writes: 1, BytesWritten: weight,
				WriteStart: 10, WriteEnd: 20,
			},
		}},
	}
}

func TestPreprocessorDedupKeepsHeaviest(t *testing.T) {
	p := NewPreprocessor()
	p.Add(validJob("alice", "/bin/app", 1, 100), nil)
	p.Add(validJob("alice", "/bin/app", 2, 5000), nil)
	p.Add(validJob("alice", "/bin/app", 3, 70), nil)
	groups := p.Groups()
	if len(groups) != 1 {
		t.Fatalf("groups = %d", len(groups))
	}
	g := groups[0]
	if g.Runs != 3 {
		t.Fatalf("runs = %d", g.Runs)
	}
	if g.Heaviest.JobID != 2 {
		t.Fatalf("heaviest = job %d, want 2", g.Heaviest.JobID)
	}
}

func TestPreprocessorTieKeepsFirstRun(t *testing.T) {
	p := NewPreprocessor()
	p.Add(validJob("alice", "/bin/app", 1, 10), nil)
	p.Add(validJob("alice", "/bin/app", 2, 500), nil)
	p.Add(validJob("alice", "/bin/app", 3, 500), nil)
	p.Add(validJob("alice", "/bin/app", 4, 20), nil)
	if g := p.Groups()[0]; g.Runs != 4 || g.Heaviest.JobID != 2 {
		t.Fatalf("runs = %d, heaviest = job %d; want 4 runs and job 2, the first of the two heaviest", g.Runs, g.Heaviest.JobID)
	}
}

// Counters are int64s of which validation rejects only negatives: two
// records of math.MaxInt64 bytes are a valid trace, and the run that
// holds them is the heaviest there can be — its weight saturates, where
// a plain sum wrapped to -2 and lost to every other run.
func TestPreprocessorSaturatedWeightWins(t *testing.T) {
	huge := validJob("alice", "/bin/app", 2, math.MaxInt64)
	huge.Records = append(huge.Records, huge.Records[0])
	if err := darshan.Validate(huge); err != nil {
		t.Fatal(err)
	}
	if w := huge.Weight(); w != math.MaxInt64 {
		t.Fatalf("weight = %d, want it saturated at MaxInt64", w)
	}
	p := NewPreprocessor()
	p.Add(validJob("alice", "/bin/app", 1, 100), nil)
	p.Add(huge, nil)
	p.Add(validJob("alice", "/bin/app", 3, 5000), nil)
	if g := p.Groups()[0]; g.Runs != 3 || g.Heaviest.JobID != 2 {
		t.Fatalf("runs = %d, heaviest = job %d; want 3 runs and job 2", g.Runs, g.Heaviest.JobID)
	}
}

// A funnel fed summaries keeps the place of each group's heaviest run —
// the path it was inspected at — and the same counts, order and ties as
// one fed the jobs.
func TestPreprocessorAddSummaryKeepsPlace(t *testing.T) {
	jobs := []*darshan.Job{
		validJob("alice", "/bin/app", 1, 10),
		validJob("alice", "/bin/app", 2, 500),
		validJob("bob", "/bin/app", 3, 7),
		validJob("alice", "/bin/app", 4, 500),
		validJob("alice", "/bin/app", 5, -1), // negative counter: evicted
	}
	byJob, bySummary := NewPreprocessor(), NewPreprocessor()
	for i, j := range jobs {
		byJob.Add(j, nil)
		bySummary.AddSummary(darshan.Summarize(j), nil, fmt.Sprintf("t%d.mosd", i), nil)
	}
	byJob.Add(nil, errors.New("decode failure"))
	bySummary.AddSummary(darshan.Summary{}, errors.New("decode failure"), "t5.mosd", nil)
	if a, b := fmt.Sprint(byJob.Stats()), fmt.Sprint(bySummary.Stats()); a != b {
		t.Fatalf("stats differ: %s from jobs, %s from summaries", a, b)
	}
	gj, gs := byJob.Groups(), bySummary.Groups()
	if len(gj) != 2 || len(gs) != 2 {
		t.Fatalf("%d and %d groups, want 2", len(gj), len(gs))
	}
	for i := range gj {
		if gj[i].User != gs[i].User || gj[i].App != gs[i].App || gj[i].Runs != gs[i].Runs || gj[i].Weight != gs[i].Weight {
			t.Fatalf("group %d: %+v from jobs, %+v from summaries", i, gj[i], gs[i])
		}
		if gs[i].Heaviest != nil || gj[i].Path != "" {
			t.Fatalf("group %d holds a job it was not given, or a path", i)
		}
	}
	if gs[0].Path != "t1.mosd" || gj[0].Heaviest.JobID != 2 || gs[1].Path != "t2.mosd" {
		t.Fatalf("kept %s and %s, want t1.mosd (first of the two heaviest) and t2.mosd", gs[0].Path, gs[1].Path)
	}
}

func TestPreprocessorSeparatesUsersAndApps(t *testing.T) {
	p := NewPreprocessor()
	p.Add(validJob("alice", "/bin/app", 1, 1), nil)
	p.Add(validJob("bob", "/bin/app", 2, 1), nil)
	p.Add(validJob("alice", "/bin/other", 3, 1), nil)
	if got := len(p.Groups()); got != 3 {
		t.Fatalf("groups = %d, want 3", got)
	}
}

func TestPreprocessorCountsCorruption(t *testing.T) {
	p := NewPreprocessor()
	bad := validJob("alice", "/bin/app", 1, 1)
	bad.Runtime = -1
	if p.Add(bad, nil) {
		t.Fatal("corrupted trace accepted")
	}
	if !p.Add(validJob("alice", "/bin/app", 2, 1), nil) {
		t.Fatal("valid trace rejected")
	}
	p.Add(nil, errors.New("decode failure"))
	s := p.Stats()
	if s.Total != 3 || s.Corrupted != 2 || s.Valid != 1 || s.UniqueApps != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ByReason["bad_header"] != 1 || s.ByReason["unreadable"] != 1 {
		t.Fatalf("reasons = %v", s.ByReason)
	}
	if s.CorruptedFraction() != 2.0/3 {
		t.Fatalf("fraction = %g", s.CorruptedFraction())
	}
	if s.UniqueFraction() != 1 {
		t.Fatalf("unique fraction = %g", s.UniqueFraction())
	}
}

func TestPreprocessorGroupOrderDeterministic(t *testing.T) {
	mk := func() []*AppGroup {
		p := NewPreprocessor()
		for i := 0; i < 20; i++ {
			p.Add(validJob(fmt.Sprintf("u%02d", i%5), fmt.Sprintf("/bin/a%d", i%7), uint64(i), 1), nil)
		}
		return p.Groups()
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("nondeterministic group count")
	}
	for i := range a {
		if a[i].User != b[i].User || a[i].App != b[i].App {
			t.Fatal("nondeterministic group order")
		}
	}
	// Sorted by (user, app).
	for i := 1; i < len(a); i++ {
		if a[i-1].User > a[i].User {
			t.Fatal("not sorted by user")
		}
	}
}

func TestStatsReasonMapIsCopied(t *testing.T) {
	p := NewPreprocessor()
	bad := validJob("a", "/b", 1, 1)
	bad.Runtime = -1
	p.Add(bad, nil)
	s := p.Stats()
	s.ByReason["bad_header"] = 999
	if p.Stats().ByReason["bad_header"] != 1 {
		t.Fatal("internal reason map leaked")
	}
}

func TestPreprocessConvenience(t *testing.T) {
	groups, stats := Preprocess([]*darshan.Job{
		validJob("a", "/x", 1, 1),
		validJob("a", "/x", 2, 2),
		validJob("b", "/y", 3, 1),
	})
	if len(groups) != 2 || stats.Valid != 3 {
		t.Fatalf("groups=%d stats=%+v", len(groups), stats)
	}
}

func TestEmptyFunnelStats(t *testing.T) {
	var s FunnelStats
	if s.CorruptedFraction() != 0 || s.UniqueFraction() != 0 {
		t.Fatal("empty funnel fractions should be 0")
	}
}
