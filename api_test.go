package mosaic_test

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
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic"
	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/gen"
)

// One test per promise the facade's kept names make in their doc
// comments, through the facade alone where it can.

func TestTraceFileRoundTrip(t *testing.T) {
	job := buildFacadeCorpus(t, 1)[0]
	for _, ext := range []string{".mosd", ".json", ".txt"} {
		t.Run(strings.TrimPrefix(ext, "."), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace"+ext)
			if err := mosaic.WriteTrace(path, job); err != nil {
				t.Fatal(err)
			}
			back, err := mosaic.ReadTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mosaic.Categorize(job, mosaic.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			got, err := mosaic.Categorize(back, mosaic.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if back.JobID != job.JobID || len(back.Records) != len(job.Records) || got.Categories != want.Categories {
				t.Fatalf("read back job %d with %d records and %v, wrote job %d with %d records and %v",
					back.JobID, len(back.Records), got.Labels, job.JobID, len(job.Records), want.Labels)
			}
		})
	}
}

func TestReadTraceMissingFile(t *testing.T) {
	if _, err := mosaic.ReadTrace(filepath.Join(t.TempDir(), "absent.mosd")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want one wrapping os.ErrNotExist", err)
	}
}

// TestListCorpusFacade: trace files are found in subdirectories, in
// sorted order; temporary files, foreign extensions and hidden
// directories are not.
func TestListCorpusFacade(t *testing.T) {
	dir := t.TempDir()
	job := buildFacadeCorpus(t, 1)[0]
	for _, name := range []string{"b.mosd", "sub/a.json", "c.mosd.tmp", ".hidden/d.mosd", "notes.md"} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := mosaic.WriteTrace(path, job); err != nil {
			t.Fatal(err)
		}
	}
	got, err := mosaic.ListCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "b.mosd"), filepath.Join(dir, "sub/a.json")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ListCorpus = %v, want %v", got, want)
	}
}

func TestExplainFacadeListsLabels(t *testing.T) {
	job := buildFacadeCorpus(t, 1)[0]
	res, err := mosaic.Categorize(job, mosaic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	mosaic.Explain(&buf, res)
	out := buf.String()
	for _, want := range []string{
		fmt.Sprintf("job %d ", job.JobID),
		"categories: " + strings.Join(res.Labels, ", "),
		"read: ", "write: ", "metadata: ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("walkthrough lacks %q:\n%s", want, out)
		}
	}
}

func TestArchetypeByNameFindsEveryArchetype(t *testing.T) {
	all := gen.DefaultArchetypes()
	if len(all) == 0 {
		t.Fatal("no archetypes")
	}
	for _, a := range all {
		got, ok := mosaic.ArchetypeByName(a.Name)
		if !ok || got.Name != a.Name || got.Exe != a.Exe {
			t.Errorf("ArchetypeByName(%q) = %q, %v", a.Name, got.Name, ok)
		}
	}
}

// TestDefaultConfigIsThePapers pins the thresholds DefaultConfig's
// comment names.
func TestDefaultConfigIsThePapers(t *testing.T) {
	cfg := mosaic.DefaultConfig()
	got := []any{cfg.SignificanceBytes, cfg.ChunkCount, cfg.DominanceFactor, cfg.SteadyCV,
		cfg.SpikeHighRate, cfg.SpikeRate, cfg.MergeRuntimeFraction, cfg.MergeNeighborFraction}
	want := []any{int64(100 << 20), 4, 2.0, 0.25, 250.0, 50.0, 0.001, 0.01}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("DefaultConfig thresholds %v, want %v", got, want)
	}
	if cfg.IsZero() {
		t.Fatal("DefaultConfig is the zero config")
	}
}

func TestValidateAcceptsBuiltTraces(t *testing.T) {
	for _, j := range buildFacadeCorpus(t, 4) {
		if err := mosaic.Validate(j); err != nil {
			t.Fatalf("job %d: %v", j.JobID, err)
		}
	}
}

// TestCategorizeAllMatchesCategorize: results come back in input order,
// each the one Categorize gives, with nil where a trace is invalid.
func TestCategorizeAllMatchesCategorize(t *testing.T) {
	jobs := buildFacadeCorpus(t, 6)
	jobs[2] = &mosaic.Job{JobID: 99, Runtime: -1, NProcs: 1}
	results, err := mosaic.CategorizeAll(context.Background(), jobs, mosaic.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	for i, j := range jobs {
		if i == 2 {
			if results[i] != nil {
				t.Fatalf("invalid job %d categorized", j.JobID)
			}
			continue
		}
		want, err := mosaic.Categorize(j, mosaic.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if results[i] == nil || results[i].JobID != j.JobID || results[i].Categories != want.Categories {
			t.Fatalf("result %d = %+v, want job %d with %v", i, results[i], j.JobID, want.Labels)
		}
	}
}

func TestCategorizeAllEmpty(t *testing.T) {
	results, err := mosaic.CategorizeAll(context.Background(), nil, mosaic.Options{})
	if err != nil || len(results) != 0 {
		t.Fatalf("CategorizeAll(nil) = %v, %v", results, err)
	}
}

func TestAnalyzeJobsContextEmpty(t *testing.T) {
	a, err := mosaic.AnalyzeJobsContext(context.Background(), nil, mosaic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Funnel.Total != 0 || len(a.Apps) != 0 || a.Aggregate.Apps() != 0 {
		t.Fatalf("empty input gave funnel %+v and %d apps", a.Funnel, len(a.Apps))
	}
}

func TestAnalyzeJobsContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mosaic.AnalyzeJobsContext(ctx, buildFacadeCorpus(t, 5), mosaic.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAnalyzeCorpusContextMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "absent")
	if _, err := mosaic.AnalyzeCorpusContext(context.Background(), dir, mosaic.Options{}); err == nil {
		t.Fatal("a missing corpus directory gave no error")
	}
}

func appSummary(a *mosaic.Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", a.Funnel)
	for _, app := range a.Apps {
		fmt.Fprintf(&b, "%d %d %v\n", app.Runs, app.Result.JobID, app.Result.Labels)
	}
	return b.String()
}

func TestOptionsWorkersDoNotChangeResults(t *testing.T) {
	jobs := buildFacadeCorpus(t, 12)
	one, err := mosaic.AnalyzeJobsContext(context.Background(), jobs, mosaic.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	three, err := mosaic.AnalyzeJobsContext(context.Background(), jobs, mosaic.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := appSummary(one), appSummary(three); a != b {
		t.Fatalf("one worker:\n%s\nthree workers:\n%s", a, b)
	}
}

func TestOptionsZeroConfigSelectsDefault(t *testing.T) {
	jobs := buildFacadeCorpus(t, 8)
	zero, err := mosaic.AnalyzeJobsContext(context.Background(), jobs, mosaic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	def, err := mosaic.AnalyzeJobsContext(context.Background(), jobs, mosaic.Options{Config: mosaic.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := appSummary(zero), appSummary(def); a != b {
		t.Fatalf("zero config:\n%s\nDefaultConfig:\n%s", a, b)
	}
}

// TestAnalysisCountsAppsAndRuns: every valid run belongs to exactly one
// application, and the aggregate sees each application once.
func TestAnalysisCountsAppsAndRuns(t *testing.T) {
	jobs := buildFacadeCorpus(t, 10)
	jobs = append(jobs, &mosaic.Job{JobID: 99, Runtime: -1, NProcs: 1})
	a, err := mosaic.AnalyzeJobsContext(context.Background(), jobs, mosaic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, app := range a.Apps {
		runs += app.Runs
	}
	if a.Funnel.Total != 11 || a.Funnel.Corrupted != 1 || runs != a.Funnel.Valid {
		t.Fatalf("funnel %+v, %d runs over the apps", a.Funnel, runs)
	}
	if a.Aggregate.Apps() != len(a.Apps) || a.Aggregate.Runs() != runs {
		t.Fatalf("aggregate holds %d apps and %d runs, want %d and %d",
			a.Aggregate.Apps(), a.Aggregate.Runs(), len(a.Apps), runs)
	}
}

func TestAnalysisWriteReportHasFunnel(t *testing.T) {
	a, err := mosaic.AnalyzeJobsContext(context.Background(), buildFacadeCorpus(t, 10), mosaic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	a.WriteReport(&buf)
	for _, want := range []string{"Pre-processing funnel", fmt.Sprintf("traces scanned     %8d", 10)} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestAppResultJSON(t *testing.T) {
	res, err := mosaic.Categorize(buildFacadeCorpus(t, 1)[0], mosaic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(mosaic.AppResult{Result: res, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || string(back["runs"]) != "3" || back["result"] == nil {
		t.Fatalf("AppResult encodes as %s", data)
	}
}

func TestTraceBuilderPeriodicSpec(t *testing.T) {
	b := mosaic.NewTraceBuilder(rand.New(rand.NewSource(1)), "u", "/bin/ckpt", 1, 8, 36000)
	b.Periodic(mosaic.PeriodicSpec{Period: 600, PhaseFrac: 0.05, BytesPer: 1 << 30, Records: 4, Write: true})
	res, err := mosaic.Categorize(b.Job(), mosaic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []category.Category{
		category.Periodic(category.DirWrite),
		category.PeriodicMagnitude(category.DirWrite, category.MagMinute),
	} {
		if !res.Categories.Has(c) {
			t.Errorf("a write every 600 s is not %s: %v", c, res.Labels)
		}
	}
}

func TestTraceBuilderBurstSpec(t *testing.T) {
	b := mosaic.NewTraceBuilder(rand.New(rand.NewSource(1)), "u", "/bin/dump", 1, 8, 3600)
	b.Burst(mosaic.BurstSpec{At: 3500, Duration: 60, Bytes: 1 << 30, Records: 4, Write: true})
	res, err := mosaic.Categorize(b.Job(), mosaic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c := category.Temporal(category.DirWrite, category.OnEnd); !res.Categories.Has(c) {
		t.Fatalf("a write in the last 100 s is not %s: %v", c, res.Labels)
	}
}
