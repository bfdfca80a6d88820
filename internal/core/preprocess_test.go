package core

import (
	"errors"
	"fmt"
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
