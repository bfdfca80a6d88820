package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/gen"
)

// A directory goes through the engine in two passes — every file
// inspected, the surviving groups' files read into jobs — and in-memory
// jobs in one. These tests hold the first to the second, and cover what
// only the first can meet: a file that changes between the passes.

// writeTestCorpus writes a generated corpus (default corruption rate)
// into a fresh directory together with two equally heavy runs of one
// more application and a file that does not decode, and returns the
// directory and its trace paths in scan order.
func writeTestCorpus(t *testing.T) (dir string, paths []string) {
	t.Helper()
	dir = t.TempDir()
	p := gen.DefaultProfile()
	p.Seed, p.Apps, p.MaxRunsPerApp = 31, 24, 6
	n := 0
	gen.Plan(p).Each(func(r gen.Run) bool {
		if err := darshan.WriteFile(filepath.Join(dir, fmt.Sprintf("t%04d.mosd", n)), r.Job); err != nil {
			t.Fatal(err)
		}
		n++
		return true
	})
	tied := testJobs(t, 1)[0]
	tied.User, tied.Exe = "tie", "/bin/tied"
	for _, id := range []uint64{900001, 900002} {
		tied.JobID = id
		if err := darshan.WriteFile(filepath.Join(dir, fmt.Sprintf("t%04d_tied%d.mosd", n/2, id)), tied); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "t0003_junk.mosd"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	paths, err := darshan.ListCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, paths
}

// decodeSpans counts the Decode item spans of a run by item name.
type decodeSpans struct {
	NopObserver
	mu     sync.Mutex
	byName map[string]int
}

func (d *decodeSpans) ItemSpan(s StageID, name string, _ time.Time, _ time.Duration) {
	if s != StageDecode {
		return
	}
	d.mu.Lock()
	d.byName[name]++
	d.mu.Unlock()
}

func TestDirEqualsJobs(t *testing.T) {
	dir, paths := writeTestCorpus(t)

	spans := &decodeSpans{byName: map[string]int{}}
	stats := NewStats()
	fromDir, err := Run(context.Background(), Dir(dir), Options{Workers: 3, Observer: MultiObserver(stats, spans)})
	if err != nil {
		t.Fatal(err)
	}
	// The reference: the same files, each decoded whole, through the
	// in-memory source.
	decoded := SourceFunc(func(ctx context.Context, emit func(Ref) bool) error {
		for _, p := range paths {
			j, err := darshan.ReadFile(p)
			if !emit(Ref{Job: j, Err: err}) {
				return ctx.Err()
			}
		}
		return nil
	})
	fromJobs, err := Run(context.Background(), decoded, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(fromDir.Funnel, fromJobs.Funnel) {
		t.Fatalf("funnel %+v from the directory, %+v from the jobs", fromDir.Funnel, fromJobs.Funnel)
	}
	f := fromDir.Funnel
	if f.Total != len(paths) || f.ByReason["unreadable"] != 1 || f.Corrupted < 5 || f.UniqueApps < 10 {
		t.Fatalf("funnel %+v over %d files is not the mixed corpus this test wants", f, len(paths))
	}
	if len(fromDir.Apps) != len(fromJobs.Apps) || len(fromDir.Apps) != f.UniqueApps {
		t.Fatalf("%d apps from the directory, %d from the jobs, %d groups", len(fromDir.Apps), len(fromJobs.Apps), f.UniqueApps)
	}
	var tiedKept uint64
	for i, a := range fromDir.Apps {
		b := fromJobs.Apps[i]
		if a.User != b.User || a.App != b.App || a.Runs != b.Runs || a.JobID != b.JobID {
			t.Fatalf("app %d: (%s, %s, %d runs, job %d) from the directory, (%s, %s, %d runs, job %d) from the jobs",
				i, a.User, a.App, a.Runs, a.JobID, b.User, b.App, b.Runs, b.JobID)
		}
		aj, err := core.AppendResultJSON(nil, a.Result)
		if err != nil {
			t.Fatal(err)
		}
		bj, err := core.AppendResultJSON(nil, b.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(aj, bj) {
			t.Fatalf("app %s/%s: result JSON differs:\n%s\n%s", a.User, a.App, aj, bj)
		}
		if a.User == "tie" {
			tiedKept = a.JobID
		}
	}
	if tiedKept != 900001 {
		t.Fatalf("of two equally heavy runs job %d was kept, want the first in scan order, 900001", tiedKept)
	}

	// Full decodes = groups kept, not files scanned: every file has one
	// Decode span, its inspection, and only a group's heaviest run a
	// second, its read into a job; the stage counters count the scan.
	twice := 0
	for _, p := range paths {
		switch spans.byName[p] {
		case 1:
		case 2:
			twice++
		default:
			t.Fatalf("%s: %d decode spans", p, spans.byName[p])
		}
	}
	if twice != len(fromDir.Apps) || len(spans.byName) != len(paths) {
		t.Fatalf("%d of %d files were read into jobs, want %d, one per group kept", twice, len(spans.byName), len(fromDir.Apps))
	}
	if d := stats.Stage(StageDecode); d.In != int64(len(paths)) || d.Out != int64(len(paths)) {
		t.Fatalf("decode stage counted %d in, %d out over %d files", d.In, d.Out, len(paths))
	}
}

// afterScan runs do once, when the funnel takes the n-th trace: every
// file has been inspected by then (the Decode stage delivers in order)
// and no group has been handed on.
type afterScan struct {
	NopObserver
	mu sync.Mutex
	n  int
	do func()
}

func (a *afterScan) ItemIn(s StageID) {
	if s != StageFunnel {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n--; a.n == 0 {
		a.do()
	}
}

// seenExec categorizes in process and records the job IDs it was given.
type seenExec struct {
	mu   sync.Mutex
	seen map[uint64]bool
}

func (e *seenExec) Categorize(ctx context.Context, j *darshan.Job, cfg core.Config) (*core.Result, error) {
	e.mu.Lock()
	e.seen[j.JobID] = true
	e.mu.Unlock()
	return core.Categorize(j, cfg)
}

func (e *seenExec) Concurrency() int { return 2 }

func TestTraceChangedBetweenPasses(t *testing.T) {
	jobs := testJobs(t, 8) // u0..u4 × app0..app6: eight groups of one run
	const victim = 3       // jobs[victim] is its group's only, hence heaviest, run
	lighter := jobs[victim].Clone()
	lighter.JobID = 777
	lighter.Records = lighter.Records[:1]
	invalid := jobs[victim].Clone()
	invalid.JobID = 778
	invalid.Records[0].C.BytesRead = -1
	other := jobs[victim].Clone()
	other.JobID = 779
	other.User = "someone-else"

	for _, c := range []struct {
		name    string
		replace *darshan.Job // nil: the file is deleted
	}{
		{"lighter", lighter}, {"corrupted", invalid}, {"other key", other}, {"deleted", nil},
	} {
		for _, policy := range []ErrorPolicy{FailFast, CollectAll} {
			t.Run(fmt.Sprintf("%s/policy%d", c.name, policy), func(t *testing.T) {
				dir := t.TempDir()
				path := func(i int) string { return filepath.Join(dir, fmt.Sprintf("t%02d.mosd", i)) }
				for i, j := range jobs {
					if err := darshan.WriteFile(path(i), j); err != nil {
						t.Fatal(err)
					}
				}
				swap := &afterScan{n: len(jobs), do: func() {
					var err error
					if c.replace == nil {
						err = os.Remove(path(victim))
					} else {
						err = darshan.WriteFile(path(victim), c.replace)
					}
					if err != nil {
						t.Error(err)
					}
				}}
				exec := &seenExec{seen: map[uint64]bool{}}
				res, err := Run(context.Background(), Dir(dir), Options{
					Workers: 2, Policy: policy, Observer: swap, Executor: exec,
				})
				if !errors.Is(err, ErrTraceChanged) || !containsStr(err.Error(), path(victim)) {
					t.Fatalf("err = %v, want ErrTraceChanged naming %s", err, path(victim))
				}
				for _, id := range []uint64{jobs[victim].JobID, 777, 778, 779} {
					if exec.seen[id] {
						t.Fatalf("job %d was categorized: the funnel never validated what is in that file now", id)
					}
				}
				if policy == FailFast {
					if res != nil {
						t.Fatal("fail-fast returned a partial analysis")
					}
					return
				}
				if res == nil || len(res.Apps) != len(jobs)-1 || res.Funnel.UniqueApps != len(jobs) {
					t.Fatalf("collect-all: %+v, want %d of %d apps", res, len(jobs)-1, len(jobs))
				}
				for _, a := range res.Apps {
					if a.User == jobs[victim].User && a.App == jobs[victim].AppName() {
						t.Fatal("the changed app leaked into the results")
					}
				}
			})
		}
	}
}
