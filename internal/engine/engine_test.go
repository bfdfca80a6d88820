package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/gen"
)

// testJobs builds a deterministic mixed corpus: n valid traces across
// several (user, app) groups plus a few corrupted ones.
func testJobs(t *testing.T, n int) []*darshan.Job {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	jobs := make([]*darshan.Job, 0, n)
	for i := 0; i < n; i++ {
		user := fmt.Sprintf("u%d", i%5)
		app := fmt.Sprintf("/bin/app%d", i%7)
		b := gen.NewBuilder(rng, user, app, uint64(i+1), 8, 3600)
		b.Burst(gen.BurstSpec{At: 30, Duration: 60, Bytes: 1 << 30, Records: 4})
		j := b.Job()
		if i%9 == 8 {
			j.Runtime = -1 // corrupted: evicted by the funnel
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func TestRunMatchesSequentialPipeline(t *testing.T) {
	jobs := testJobs(t, 60)
	res, err := Run(context.Background(), Jobs(jobs), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the pre-engine orchestration, run sequentially.
	pre := core.NewPreprocessor()
	for _, j := range jobs {
		pre.Add(j, nil)
	}
	wantFunnel := pre.Stats()
	groups := pre.Groups()

	if res.Funnel.Total != wantFunnel.Total ||
		res.Funnel.Corrupted != wantFunnel.Corrupted ||
		res.Funnel.Valid != wantFunnel.Valid ||
		res.Funnel.UniqueApps != wantFunnel.UniqueApps {
		t.Fatalf("funnel mismatch: got %+v want %+v", res.Funnel, wantFunnel)
	}
	if len(res.Apps) != len(groups) {
		t.Fatalf("apps = %d, want %d", len(res.Apps), len(groups))
	}
	cfg := core.DefaultConfig()
	for i, g := range groups {
		a := res.Apps[i]
		if a.User != g.User || a.App != g.App || a.Runs != g.Runs {
			t.Fatalf("app %d: got (%s,%s,%d) want (%s,%s,%d)",
				i, a.User, a.App, a.Runs, g.User, g.App, g.Runs)
		}
		want, err := core.Categorize(g.Heaviest, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Result.Categories.Equal(want.Categories) {
			t.Fatalf("app %s/%s categories %v, want %v", g.User, g.App, a.Result.Labels, want.Labels)
		}
	}
}

func TestRunDirSourceDecodesCorpus(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(t, 20)
	valid := make([]*darshan.Job, 0, len(jobs))
	for _, j := range jobs {
		if j.Runtime > 0 {
			valid = append(valid, j)
		}
	}
	if err := darshan.WriteCorpus(dir, valid); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Dir(dir), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	// WriteCorpus overwrites same-named files (user_app_jobid), so count
	// distinct paths rather than len(valid).
	paths, err := darshan.ListCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Funnel.Total != len(paths) {
		t.Fatalf("funnel total = %d, want %d files", res.Funnel.Total, len(paths))
	}
	if res.Funnel.Corrupted != 0 || len(res.Apps) == 0 {
		t.Fatalf("unexpected funnel %+v", res.Funnel)
	}
}

// slowExec delays each categorization so cancellation lands mid-stage.
type slowExec struct {
	delay time.Duration
}

func (s slowExec) Categorize(ctx context.Context, j *darshan.Job, cfg core.Config) (*core.Result, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return core.Categorize(j, cfg)
}

func (s slowExec) Concurrency() int { return 2 }

func (s slowExec) CategorizeExplained(ctx context.Context, j *darshan.Job, cfg core.Config, _ explain.Options) (*core.Result, *explain.Explanation, error) {
	res, err := s.Categorize(ctx, j, cfg)
	return res, nil, err
}

// cancelOnCategorize cancels when the first group reaches a Categorize
// worker: the scan is over, the funnel has closed, and the worker is
// about to read the group's file into a job.
type cancelOnCategorize struct {
	NopObserver
	cancel context.CancelFunc
}

func (c cancelOnCategorize) ItemIn(s StageID) {
	if s == StageCategorize {
		c.cancel()
	}
}

func TestRunCancellationPromptNoLeaks(t *testing.T) {
	jobs := testJobs(t, 80)
	dir := t.TempDir()
	for i, j := range jobs {
		if err := darshan.WriteFile(filepath.Join(dir, fmt.Sprintf("t%03d.mosd", i)), j); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		src  Source
		// trigger returns the observer that cancels the run, or nil to
		// cancel from outside once the pipeline has spun up.
		trigger func(context.CancelFunc) Observer
	}{
		{"mid-stream", Jobs(jobs), nil},
		{"after the funnel, while the kept runs load", Dir(dir), func(cancel context.CancelFunc) Observer {
			return cancelOnCategorize{cancel: cancel}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := Options{
				Workers:  4,
				Executor: slowExec{delay: 50 * time.Millisecond},
				Buffer:   2,
			}
			if c.trigger != nil {
				opts.Observer = c.trigger(cancel)
			}
			done := make(chan error, 1)
			go func() {
				_, err := Run(ctx, c.src, opts)
				done <- err
			}()
			if c.trigger == nil {
				time.Sleep(20 * time.Millisecond) // let the pipeline spin up
				cancel()
			}
			start := time.Now()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("pipeline did not shut down after cancel")
			}
			if waited := time.Since(start); waited > time.Second {
				t.Fatalf("shutdown took %v, not prompt", waited)
			}

			// Every stage goroutine must have exited; poll because the final few
			// unwind just after Run returns.
			deadline := time.Now().Add(2 * time.Second)
			for {
				runtime.GC()
				if n := runtime.NumGoroutine(); n <= before {
					break
				} else if time.Now().After(deadline) {
					t.Fatalf("goroutine leak: %d before, %d after cancel", before, n)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

func TestRunTimeout(t *testing.T) {
	jobs := testJobs(t, 40)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, Jobs(jobs), Options{Executor: slowExec{delay: 200 * time.Millisecond}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// failExec fails on selected users and records how many calls ran.
type failExec struct {
	failUser string
	calls    chan string
}

func (f failExec) Categorize(ctx context.Context, j *darshan.Job, cfg core.Config) (*core.Result, error) {
	if f.calls != nil {
		select {
		case f.calls <- j.User:
		default:
		}
	}
	if j.User == f.failUser {
		return nil, fmt.Errorf("synthetic failure for %s", j.User)
	}
	return core.Categorize(j, cfg)
}

func (f failExec) Concurrency() int { return 1 }

func (f failExec) CategorizeExplained(ctx context.Context, j *darshan.Job, cfg core.Config, _ explain.Options) (*core.Result, *explain.Explanation, error) {
	res, err := f.Categorize(ctx, j, cfg)
	return res, nil, err
}

func TestRunFailFast(t *testing.T) {
	jobs := testJobs(t, 60)
	res, err := Run(context.Background(), Jobs(jobs), Options{
		Executor: failExec{failUser: "u0"},
	})
	if err == nil || !containsStr(err.Error(), "synthetic failure") {
		t.Fatalf("fail-fast error %v does not carry the cause", err)
	}
	if res != nil {
		t.Fatal("fail-fast must not return a partial analysis")
	}
}

// TestRunFailFastStopsCategorizing: the worker whose categorization
// failed takes no further group. With one categorize worker the failing
// call is the last call, although u0 owns several groups.
func TestRunFailFastStopsCategorizing(t *testing.T) {
	jobs := testJobs(t, 60)
	exec := failExec{failUser: "u0", calls: make(chan string, len(jobs))}
	if _, err := Run(context.Background(), Jobs(jobs), Options{Executor: exec}); err == nil {
		t.Fatal("the failure was not returned")
	}
	close(exec.calls)
	var calls []string
	for u := range exec.calls {
		calls = append(calls, u)
	}
	if len(calls) == 0 || calls[len(calls)-1] != "u0" {
		t.Fatalf("calls %v, want the failing u0 call last", calls)
	}
	for _, u := range calls[:len(calls)-1] {
		if u == "u0" {
			t.Fatalf("calls %v: a u0 group was categorized after a failure", calls)
		}
	}
}

func TestObserverCountsAndTimings(t *testing.T) {
	jobs := testJobs(t, 45)
	st := NewStats()
	res, err := Run(context.Background(), Jobs(jobs), Options{Workers: 3, Observer: st})
	if err != nil {
		t.Fatal(err)
	}
	snaps := st.Snapshot()
	if len(snaps) != len(Stages()) {
		t.Fatalf("got %d stage snapshots, want %d", len(snaps), len(Stages()))
	}
	for _, s := range snaps {
		if !s.Started || !s.Finished {
			t.Fatalf("stage %s not started/finished: %+v", s.Stage, s)
		}
		if s.InFlight != 0 {
			t.Fatalf("stage %s still in flight after run: %+v", s.Stage, s)
		}
	}
	if out := st.Stage(StageScan).Out; out != int64(len(jobs)) {
		t.Fatalf("scan out = %d, want %d", out, len(jobs))
	}
	if in := st.Stage(StageDecode).In; in != int64(len(jobs)) {
		t.Fatalf("decode in = %d, want %d", in, len(jobs))
	}
	if in := st.Stage(StageFunnel).In; in != int64(len(jobs)) {
		t.Fatalf("funnel in = %d, want %d", in, len(jobs))
	}
	if out := st.Stage(StageFunnel).Out; out != int64(res.Funnel.UniqueApps) {
		t.Fatalf("funnel out = %d, want %d groups", out, res.Funnel.UniqueApps)
	}
	if got := st.Stage(StageCategorize).Out; got != int64(len(res.Apps)) {
		t.Fatalf("categorize out = %d, want %d", got, len(res.Apps))
	}
	if got := st.Stage(StageAggregate).In; got != int64(len(res.Apps)) {
		t.Fatalf("aggregate in = %d, want %d", got, len(res.Apps))
	}
	if st.String() == "" {
		t.Fatal("empty stats summary")
	}
}

func TestRunZeroConfigUsesDefaults(t *testing.T) {
	jobs := testJobs(t, 10)
	res, err := Run(context.Background(), Jobs(jobs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) == 0 {
		t.Fatal("zero-config run produced no apps")
	}
}

func TestScanErrorSurfaces(t *testing.T) {
	boom := errors.New("boom")
	src := SourceFunc(func(ctx context.Context, emit func(Ref) bool) error {
		emit(Ref{Job: testJobs(t, 1)[0]})
		return boom
	})
	_, err := Run(context.Background(), src, Options{})
	if !errors.Is(err, boom) {
		t.Fatalf("scan error lost: %v", err)
	}
}

// A Ref that arrives with a read error is funnel data like a file that
// does not decode: counted unreadable, not a failed run.
func TestRefErrCountsAsUnreadable(t *testing.T) {
	jobs := testJobs(t, 6)
	src := SourceFunc(func(ctx context.Context, emit func(Ref) bool) error {
		emit(Ref{Path: "a", Job: jobs[0]})
		emit(Ref{Path: "b", Err: errors.New("unreadable gzip")})
		emit(Ref{Path: "c", Job: jobs[2]})
		return nil
	})
	res, err := Run(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Funnel.Total != 3 || res.Funnel.Corrupted != 1 || res.Funnel.ByReason["unreadable"] != 1 {
		t.Fatalf("funnel %+v, want 3 total / 1 unreadable", res.Funnel)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
