package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/darshan/mosdtest"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/gen"
)

// A directory goes through the engine in two passes — every file
// inspected, the surviving groups' files read into jobs — and in-memory
// jobs in one. These tests hold the first to the second, and cover what
// only the first can meet: a file that changes between the passes.

// testCorpus is a generated corpus (default corruption rate) with, in the
// middle of it, two equally heavy runs of one more application — the
// first of which the funnel keeps — as file names in scan order and the
// jobs they hold. writeDir adds a file that does not decode.
func testCorpus(t *testing.T) (names []string, jobs []*darshan.Job) {
	t.Helper()
	p := gen.DefaultProfile()
	p.Seed, p.Apps, p.MaxRunsPerApp = 31, 24, 6
	gen.Plan(p).Each(func(r gen.Run) bool {
		names = append(names, fmt.Sprintf("t%04d.mosd", len(names)))
		jobs = append(jobs, r.Job)
		return true
	})
	n := len(names)
	for _, id := range []uint64{tiedFirst, tiedSecond} {
		tied := testJobs(t, 1)[0]
		tied.User, tied.Exe, tied.JobID = "tie", "/bin/tied", id
		names = append(names, fmt.Sprintf("t%04d_tied%d.mosd", n/2, id))
		jobs = append(jobs, tied)
	}
	return names, jobs
}

const tiedFirst, tiedSecond = 900001, 900002

// v4File is the file darshan.WriteFile writes for j; v3File and v2File
// are the file encodings of the same trace before it, with a prelude over
// a gzip body and without one.
func v4File(t *testing.T, j *darshan.Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := darshan.WriteBinary(&buf, j); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func v3File(t *testing.T, j *darshan.Job) []byte {
	t.Helper()
	raw, err := darshan.MarshalBinary(j)
	if err != nil {
		t.Fatal(err)
	}
	return mosdtest.V3File(t, v4File(t, j), raw)
}

func v2File(t *testing.T, j *darshan.Job) []byte {
	t.Helper()
	raw, err := darshan.MarshalBinary(j)
	if err != nil {
		t.Fatal(err)
	}
	return mosdtest.V2File(t, raw)
}

// writeDir writes the test corpus into a fresh directory, each trace
// encoded by encode, together with a file that does not decode, and
// returns the directory and its trace paths in scan order.
func writeDir(t *testing.T, encode func(i int, j *darshan.Job) []byte) (dir string, paths []string) {
	t.Helper()
	dir = t.TempDir()
	names, jobs := testCorpus(t)
	for i, j := range jobs {
		if err := os.WriteFile(filepath.Join(dir, names[i]), encode(i, j), 0o644); err != nil {
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

// decodeSpans counts the Decode item spans of a run by item name, and
// how many times the Decode stage started.
type decodeSpans struct {
	NopObserver
	mu     sync.Mutex
	byName map[string]int
	passes int
}

func (d *decodeSpans) StageStarted(s StageID) {
	if s == StageDecode {
		d.mu.Lock()
		d.passes++
		d.mu.Unlock()
	}
}

func (d *decodeSpans) ItemSpan(s StageID, name string, _ time.Time, _ time.Duration) {
	if s != StageDecode {
		return
	}
	d.mu.Lock()
	d.byName[name]++
	d.mu.Unlock()
}

// decodedWhole is the reference source: the same files, each decoded
// whole, handed on as in-memory jobs.
func decodedWhole(paths []string) Source {
	return SourceFunc(func(ctx context.Context, emit func(Ref) bool) error {
		for _, p := range paths {
			j, err := darshan.ReadFile(p)
			if !emit(Ref{Job: j, Err: err}) {
				return ctx.Err()
			}
		}
		return nil
	})
}

// sameAnswer fails the test unless two runs agree on the funnel and, app
// for app, on the run kept and every byte of its result; it returns the
// job kept of the two tied runs.
func sameAnswer(t *testing.T, got, want *Result) (tiedKept uint64) {
	t.Helper()
	if !reflect.DeepEqual(got.Funnel, want.Funnel) {
		t.Fatalf("funnel %+v, want %+v", got.Funnel, want.Funnel)
	}
	if len(got.Apps) != len(want.Apps) || len(got.Apps) != got.Funnel.UniqueApps {
		t.Fatalf("%d apps, want %d; %d groups", len(got.Apps), len(want.Apps), got.Funnel.UniqueApps)
	}
	for i, a := range got.Apps {
		b := want.Apps[i]
		if a.User != b.User || a.App != b.App || a.Runs != b.Runs || a.JobID != b.JobID {
			t.Fatalf("app %d: (%s, %s, %d runs, job %d), want (%s, %s, %d runs, job %d)",
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
	return tiedKept
}

func TestDirEqualsJobs(t *testing.T) {
	dir, paths := writeDir(t, func(_ int, j *darshan.Job) []byte { return v4File(t, j) })

	spans := &decodeSpans{byName: map[string]int{}}
	stats := NewStats()
	fromDir, err := Run(context.Background(), Dir(dir), Options{Workers: 3, Observer: MultiObserver(stats, spans)})
	if err != nil {
		t.Fatal(err)
	}
	fromJobs, err := Run(context.Background(), decodedWhole(paths), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := fromDir.Funnel
	if f.Total != len(paths) || f.ByReason["unreadable"] != 1 || f.Corrupted < 5 || f.UniqueApps < 10 {
		t.Fatalf("funnel %+v over %d files is not the mixed corpus this test wants", f, len(paths))
	}
	if tiedKept := sameAnswer(t, fromDir, fromJobs); tiedKept != tiedFirst {
		t.Fatalf("of two equally heavy runs job %d was kept, want the first in scan order, %d", tiedKept, tiedFirst)
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
	if twice != len(fromDir.Apps) || len(spans.byName) != len(paths) || spans.passes != 1 {
		t.Fatalf("%d of %d files were read into jobs in %d passes, want %d, one per group kept, in one", twice, len(spans.byName), spans.passes, len(fromDir.Apps))
	}
	if d := stats.Stage(StageDecode); d.In != int64(len(paths)) || d.Out != int64(len(paths)) {
		t.Fatalf("decode stage counted %d in, %d out over %d files", d.In, d.Out, len(paths))
	}
}

// TestDirEncodingsAgree: the same traces as version-4, version-3 and
// version-2 files and as a mix of the three give the same answer at any
// parallelism, in one pass — where the summary comes from, and how the
// body is stored, changes nothing.
func TestDirEncodingsAgree(t *testing.T) {
	dirs := map[string]string{}
	dirs["v2"], _ = writeDir(t, func(_ int, j *darshan.Job) []byte { return v2File(t, j) })
	dirs["v3"], _ = writeDir(t, func(_ int, j *darshan.Job) []byte { return v3File(t, j) })
	dirs["v4"], _ = writeDir(t, func(_ int, j *darshan.Job) []byte { return v4File(t, j) })
	dirs["mixed"], _ = writeDir(t, func(i int, j *darshan.Job) []byte {
		switch i % 3 {
		case 0:
			return v2File(t, j)
		case 1:
			return v3File(t, j)
		}
		return v4File(t, j)
	})
	for _, workers := range []int{1, 2, 8} {
		want, err := Run(context.Background(), Dir(dirs["v2"]), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"v3", "v4", "mixed"} {
			passes := &decodeSpans{byName: map[string]int{}}
			got, err := Run(context.Background(), Dir(dirs[name]), Options{Workers: workers, Observer: passes})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			if sameAnswer(t, got, want) != tiedFirst || passes.passes != 1 {
				t.Fatalf("%s, %d workers: tie broken differently, or %d passes", name, workers, passes.passes)
			}
		}
	}
}

// TestLyingPrelude pins the trust rule on a directory of version-4 files
// of which one — a run of the tied pair — has a prelude edited after the
// fact and sealed again. The reference is the same directory decoded
// whole, where the liar is a file that does not decode.
func TestLyingPrelude(t *testing.T) {
	withLiar := func(victim uint64, lie func(*mosdtest.Prelude)) (dir string, paths []string) {
		return writeDir(t, func(_ int, j *darshan.Job) []byte {
			if j.JobID != victim {
				return v4File(t, j)
			}
			return mosdtest.EditPrelude(t, v4File(t, j), lie)
		})
	}
	reference := func(paths []string) *Result {
		t.Helper()
		res, err := Run(context.Background(), decodedWhole(paths), Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Over-claiming: the second tied run says it is heavier and takes the
	// place of the honest first. Reading it back shows the lie; the pass is
	// repeated with every file walked, the liar is unreadable, the honest
	// run wins — under either policy, without an error.
	for _, policy := range []ErrorPolicy{FailFast, CollectAll} {
		dir, paths := withLiar(tiedSecond, func(p *mosdtest.Prelude) { p.Weight++ })
		want := reference(paths)
		spans := &decodeSpans{byName: map[string]int{}}
		got, err := Run(context.Background(), Dir(dir), Options{Workers: 2, Policy: policy, Observer: spans})
		if err != nil {
			t.Fatalf("over-claim, policy %d: %v", policy, err)
		}
		if sameAnswer(t, got, want) != tiedFirst || got.Funnel.ByReason["unreadable"] != 2 {
			t.Fatalf("over-claim, policy %d: funnel %+v, want the liar unreadable beside the junk file and job %d kept", policy, got.Funnel, tiedFirst)
		}
		if spans.passes != 2 {
			t.Fatalf("over-claim, policy %d: %d Decode passes, want the believing one and the repeat", policy, spans.passes)
		}
		for _, p := range paths {
			if n := spans.byName[p]; n < 2 {
				t.Fatalf("over-claim, policy %d: %s inspected %d times, want once per pass", policy, p, n)
			}
		}
	}

	// Under-claiming: the first tied run says it is lighter, so the second
	// is kept and the liar is never read again. This is the one documented
	// divergence from a full walk: the file removed only itself, and the
	// funnel counts it as the valid, lighter run it claims to be.
	dir, paths := withLiar(tiedFirst, func(p *mosdtest.Prelude) { p.Weight-- })
	walked := reference(paths)
	spans := &decodeSpans{byName: map[string]int{}}
	got, err := Run(context.Background(), Dir(dir), Options{Workers: 2, Observer: spans})
	if err != nil || spans.passes != 1 {
		t.Fatalf("under-claim: %v, %d passes", err, spans.passes)
	}
	believed := walked.Funnel
	believed.Valid, believed.Corrupted = believed.Valid+1, believed.Corrupted-1
	believed.ByReason = map[string]int{}
	for k, v := range walked.Funnel.ByReason {
		believed.ByReason[k] = v
	}
	believed.ByReason["unreadable"]--
	if !reflect.DeepEqual(got.Funnel, believed) {
		t.Fatalf("under-claim: funnel %+v, want %+v (the full walk's with the liar counted valid)", got.Funnel, believed)
	}
	for i, a := range got.Apps {
		b := walked.Apps[i]
		wantRuns := b.Runs
		if a.User == "tie" {
			wantRuns = 2
			if a.JobID != tiedSecond {
				t.Fatalf("under-claim: job %d kept, want %d", a.JobID, tiedSecond)
			}
		}
		if a.User != b.User || a.App != b.App || a.JobID != b.JobID || a.Runs != wantRuns {
			t.Fatalf("under-claim: app %d is (%s, %s, job %d, %d runs), full walk has (%s, %s, job %d, %d runs)",
				i, a.User, a.App, a.JobID, a.Runs, b.User, b.App, b.JobID, b.Runs)
		}
	}

	// Other rules: a prelude written under rules this reader does not have
	// is not read, whatever it says, and the file is walked like a
	// version-2 one.
	dir, _ = withLiar(tiedSecond, func(p *mosdtest.Prelude) { p.Rules++; p.Weight += 100 })
	v2dir, _ := writeDir(t, func(_ int, j *darshan.Job) []byte { return v2File(t, j) })
	want, err := Run(context.Background(), Dir(v2dir), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	spans = &decodeSpans{byName: map[string]int{}}
	got, err = Run(context.Background(), Dir(dir), Options{Workers: 2, Observer: spans})
	if err != nil || spans.passes != 1 {
		t.Fatalf("other rules: %v, %d passes", err, spans.passes)
	}
	if sameAnswer(t, got, want) != tiedFirst {
		t.Fatal("other rules: the ignored prelude moved the tie")
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

func (e *seenExec) CategorizeExplained(ctx context.Context, j *darshan.Job, cfg core.Config, _ explain.Options) (*core.Result, *explain.Explanation, error) {
	res, err := e.Categorize(ctx, j, cfg)
	return res, nil, err
}

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

// TestDirReusesWorkerJob reads every kept run of a directory through one
// Categorize worker, hence one job, in an order that makes each read
// undo the last: large and small record counts alternate, so do DXT and
// aggregate-only traces and traces with and without metadata, and one run
// is a JSON file. Results, explanations and the funnel must be those of
// the same traces handed over as in-memory jobs.
func TestDirReusesWorkerJob(t *testing.T) {
	checkpointer, _ := gen.ArchetypeByName("checkpointer-minute")
	quiet, _ := gen.ArchetypeByName("quiet")
	dxt := gen.DXTCheckpointerArchetype(true)
	runs := []struct {
		arch  gen.Archetype
		small bool // cut to its first three records
		meta  bool
		ext   string
	}{
		{checkpointer, false, true, darshan.ExtBinary},
		{quiet, true, false, darshan.ExtBinary},
		{dxt, false, true, darshan.ExtBinary},
		{dxt, true, false, darshan.ExtBinary},
		{dxt, false, false, darshan.ExtJSON},
		{checkpointer, true, true, darshan.ExtBinary},
		{checkpointer, false, false, darshan.ExtBinary},
		{dxt, true, true, darshan.ExtBinary},
		{quiet, false, true, darshan.ExtBinary},
	}
	dir := t.TempDir()
	var jobs []*darshan.Job
	for i, r := range runs {
		rng := rand.New(rand.NewSource(int64(40 + i)))
		p := r.arch.Params(rng)
		b := gen.NewBuilder(rng, fmt.Sprintf("u%02d", i), r.arch.Exe, uint64(i+1), p.Ranks, p.RuntimeBase)
		r.arch.Build(b, p)
		j := b.Job()
		if r.small && len(j.Records) > 3 {
			j.Records = j.Records[:3]
		}
		if !r.meta {
			j.Metadata = nil
		}
		if err := darshan.Validate(j); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if err := darshan.WriteFile(filepath.Join(dir, fmt.Sprintf("t%02d%s", i, r.ext)), j); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	opts := Options{Workers: 1, Explain: true}
	fromDir, err := Run(context.Background(), Dir(dir), opts)
	if err != nil {
		t.Fatal(err)
	}
	fromJobs, err := Run(context.Background(), Jobs(jobs), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromDir.Apps) != len(runs) {
		t.Fatalf("%d apps, want every one of the %d runs kept", len(fromDir.Apps), len(runs))
	}
	sameAnswer(t, fromDir, fromJobs)
	for i, a := range fromDir.Apps {
		got, err := json.Marshal(a.Explanation)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(fromJobs.Apps[i].Explanation)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("app %s/%s: explanation differs:\n%s\n%s", a.User, a.App, got, want)
		}
	}
}

// TestResultOutlivesItsJob holds a result to what it said when it was
// made after its worker's job has been read into again: nothing of it —
// Truth above all, a map the decoder refills in place — may change.
func TestResultOutlivesItsJob(t *testing.T) {
	dir := t.TempDir()
	var groups []*core.AppGroup
	for i, name := range []string{"checkpointer-minute", "metastorm"} {
		arch, _ := gen.ArchetypeByName(name)
		rng := rand.New(rand.NewSource(int64(3 + i)))
		p := arch.Params(rng)
		b := gen.NewBuilder(rng, "u1", arch.Exe, uint64(i+1), p.Ranks, p.RuntimeBase)
		arch.Build(b, p)
		path := filepath.Join(dir, name+darshan.ExtBinary)
		if err := darshan.WriteFile(path, b.Job()); err != nil {
			t.Fatal(err)
		}
		s, err := darshan.InspectFile(path)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, &core.AppGroup{User: s.User, App: s.App, Path: path, Weight: s.Weight})
	}
	var own darshan.Job
	if err := materialize(&own, groups[0]); err != nil {
		t.Fatal(err)
	}
	res, exp, err := core.CategorizeExplained(&own, core.DefaultConfig(), explain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() []byte {
		out, err := core.AppendResultJSON(nil, res)
		if err != nil {
			t.Fatal(err)
		}
		e, err := json.Marshal(exp)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, e...)
	}
	before := snapshot()
	truth := res.Truth[gen.TruthKey]
	if truth == "" {
		t.Fatal("the first trace carries no truth: the test cannot see the map")
	}
	if err := materialize(&own, groups[1]); err != nil {
		t.Fatal(err)
	}
	if own.Metadata[gen.TruthKey] == truth {
		t.Fatalf("both traces carry truth %q: the test cannot tell them apart", truth)
	}
	if after := snapshot(); !bytes.Equal(after, before) {
		t.Fatalf("the first result changed when the second trace was read into its job:\nbefore %s\nafter  %s", before, after)
	}
}
