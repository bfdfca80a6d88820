package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic"
	"github.com/mosaic-hpc/mosaic/internal/darshan/mosdtest"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// writeTestTrace builds a small checkpointing trace on disk.
func writeTestTrace(t *testing.T, dir, name string) string {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	b := mosaic.NewTraceBuilder(rng, "u", "/bin/app", 1, 8, 3600)
	b.Burst(mosaic.BurstSpec{At: 30, Duration: 60, Bytes: 1 << 30, Records: 8})
	b.Periodic(mosaic.PeriodicSpec{Period: 300, PhaseFrac: 0.1, BytesPer: 1 << 30, Records: 8, Write: true})
	path := filepath.Join(dir, name)
	if err := mosaic.WriteTrace(path, b.Job()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSingleTrace(t *testing.T) {
	dir := t.TempDir()
	path := writeTestTrace(t, dir, "a.mosd")
	cfg := mosaic.DefaultConfig()
	if err := run(context.Background(), path, cfg, 1, singleOpts{}, "", false, "", "", corpusOpts{}); err != nil {
		t.Fatal(err)
	}
	// Explain + timeline paths.
	if err := run(context.Background(), path, cfg, 1, singleOpts{explain: true, timeline: true}, "", false, "", "", corpusOpts{}); err != nil {
		t.Fatal(err)
	}
	// JSON output.
	jsonPath := filepath.Join(dir, "out.json")
	if err := run(context.Background(), path, cfg, 1, singleOpts{jsonOut: jsonPath}, jsonPath, false, "", "", corpusOpts{}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(jsonPath); err != nil || fi.Size() == 0 {
		t.Fatalf("json output missing: %v", err)
	}
}

func TestRunSingleExplainJSON(t *testing.T) {
	dir := t.TempDir()
	path := writeTestTrace(t, dir, "a.mosd")
	out := filepath.Join(dir, "explain.json")
	so := singleOpts{explain: true, explainJSON: out, explainMargin: 0.1}
	if err := run(context.Background(), path, mosaic.DefaultConfig(), 1, so, "", false, "", "", corpusOpts{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var e mosaic.Explanation
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("-explain-json artifact is not a valid explanation: %v", err)
	}
	if e.Margin != 0.1 {
		t.Fatalf("margin not threaded: got %g, want 0.1", e.Margin)
	}
	if len(e.Labels) == 0 || e.EvidenceCount() == 0 {
		t.Fatalf("explanation empty: labels=%v evidence=%d", e.Labels, e.EvidenceCount())
	}
}

func TestRunCorpusDir(t *testing.T) {
	dir := t.TempDir()
	writeTestTrace(t, dir, "a.mosd")
	writeTestTrace(t, dir, "b.mosd")
	jsonPath := filepath.Join(dir, "corpus.json")
	if err := run(context.Background(), dir, mosaic.DefaultConfig(), 2, singleOpts{}, jsonPath, true, "", "", corpusOpts{}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(jsonPath); err != nil || fi.Size() == 0 {
		t.Fatalf("corpus json missing: %v", err)
	}
}

func TestRunConvertAndAnonymize(t *testing.T) {
	dir := t.TempDir()
	path := writeTestTrace(t, dir, "a.mosd")
	for _, out := range []string{"b.json", "c.txt", "d.mosd"} {
		target := filepath.Join(dir, out)
		if err := run(context.Background(), path, mosaic.DefaultConfig(), 1, singleOpts{}, "", false, target, "pepper", corpusOpts{}); err != nil {
			t.Fatalf("convert to %s: %v", out, err)
		}
		back, err := mosaic.ReadTrace(target)
		if err != nil {
			t.Fatalf("re-reading %s: %v", out, err)
		}
		if back.User == "u" {
			t.Fatal("anonymization not applied during convert")
		}
	}
}

func TestRunRejectsCorruptedSingle(t *testing.T) {
	dir := t.TempDir()
	path := writeTestTrace(t, dir, "a.mosd")
	j, err := mosaic.ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Runtime = -1
	bad := filepath.Join(dir, "bad.mosd")
	if err := mosaic.WriteTrace(bad, j); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), bad, mosaic.DefaultConfig(), 1, singleOpts{}, "", false, "", "", corpusOpts{}); err == nil {
		t.Fatal("corrupted single trace accepted")
	}
}

func TestRunMissingTarget(t *testing.T) {
	if err := run(context.Background(), "/nonexistent/path", mosaic.DefaultConfig(), 1, singleOpts{}, "", false, "", "", corpusOpts{}); err == nil {
		t.Fatal("missing target accepted")
	}
}

func TestRunCorpusCancelled(t *testing.T) {
	dir := t.TempDir()
	writeTestTrace(t, dir, "a.mosd")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, dir, mosaic.DefaultConfig(), 1, singleOpts{}, "", false, "", "", corpusOpts{})
	if err == nil {
		t.Fatal("cancelled corpus run succeeded")
	}
}

func TestRunCorpusProgress(t *testing.T) {
	dir := t.TempDir()
	writeTestTrace(t, dir, "a.mosd")
	writeTestTrace(t, dir, "b.mosd")
	if err := run(context.Background(), dir, mosaic.DefaultConfig(), 2, singleOpts{}, "", false, "", "", corpusOpts{progress: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCorpusTraceOut(t *testing.T) {
	dir := t.TempDir()
	writeTestTrace(t, dir, "a.mosd")
	writeTestTrace(t, dir, "b.mosd")
	tracePath := filepath.Join(t.TempDir(), "run.trace.json")
	co := corpusOpts{traceOut: tracePath, slowK: 3}
	if err := run(context.Background(), dir, mosaic.DefaultConfig(), 2, singleOpts{}, "", false, "", "", co); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-trace-out artifact is not valid trace-event JSON: %v", err)
	}
	var decodes int
	for _, e := range doc.TraceEvents {
		if e.Cat == "decode" && e.Ph == "X" {
			decodes++
		}
	}
	// Both files hold the same application: each is inspected once, and
	// the one the funnel keeps is read again, as a job, to be categorized.
	if decodes != 3 {
		t.Fatalf("want 3 decode spans (one per trace scanned, one for the run kept), got %d", decodes)
	}
}

// captured runs fn with *std (os.Stdout or os.Stderr) pointed at a file
// and returns what fn wrote there.
func captured(t *testing.T, std **os.File, fn func()) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "captured"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := *std
	*std = f
	fn()
	*std = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestV2CorpusFixture: a corpus written by the last commit whose file
// encoding was version 2 (internal/darshan/testdata/v2corpus, README
// there), and the same corpus as the last version-3 writer rewrote it
// (testdata/v3corpus), still give, byte for byte, the report and the
// -json output that commit gave at 1, 2 and 8 workers — read as they
// are, and again after every file went through -convert, which rewrites
// it as version 4.
func TestV2CorpusFixture(t *testing.T) {
	const fixture = "../../internal/darshan/testdata/v2corpus"
	const v3fixture = "../../internal/darshan/testdata/v3corpus"
	wantReport, err := os.ReadFile(fixture + ".report")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := os.ReadFile(fixture + ".json")
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{fixture, v3fixture}
	for version, dir := range map[byte]string{2: fixture, 3: v3fixture} {
		files, err := mosaic.ListCorpus(dir)
		if err != nil || len(files) != 12 {
			t.Fatalf("%s: %d fixture files, %v", dir, len(files), err)
		}
		converted := t.TempDir()
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil || len(data) < 8 || data[4] != version {
				t.Fatalf("%s: %v; header % x: the fixture must stay version %d", f, err, data[:min(len(data), 8)], version)
			}
			out := filepath.Join(converted, filepath.Base(f))
			captured(t, &os.Stdout, func() {
				if err := run(context.Background(), f, mosaic.DefaultConfig(), 1, singleOpts{}, "", false, out, "", corpusOpts{}); err != nil {
					t.Fatalf("convert %s: %v", f, err)
				}
			})
			if data, err := os.ReadFile(out); err != nil || data[4] != 4 {
				t.Fatalf("%s: %v; -convert wrote version %d, want 4", out, err, data[4])
			}
		}
		dirs = append(dirs, converted)
	}
	for _, dir := range dirs {
		for _, workers := range []int{1, 2, 8} {
			jsonPath := filepath.Join(t.TempDir(), "out.json")
			report := captured(t, &os.Stdout, func() {
				if err := run(context.Background(), dir, mosaic.DefaultConfig(), workers, singleOpts{}, jsonPath, false, "", "", corpusOpts{}); err != nil {
					t.Fatalf("%s: %v", dir, err)
				}
			})
			gotJSON, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(report, wantReport) {
				t.Errorf("%s, %d workers: report differs from the checked-in one:\n%s", dir, workers, report)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("%s, %d workers: -json output differs from the checked-in one", dir, workers)
			}
		}
	}
}

// TestLyingPreludeIsNamed: when a kept run's prelude turns out not to be
// the summary of its body, the run still succeeds — the engine repeats
// the pass — and stderr says why in one line that names the file.
func TestLyingPreludeIsNamed(t *testing.T) {
	dir := t.TempDir()
	writeTestTrace(t, dir, "a.mosd")
	liar := writeTestTrace(t, dir, "b.mosd")
	honest, err := os.ReadFile(liar)
	if err != nil {
		t.Fatal(err)
	}
	heavier := mosdtest.EditPrelude(t, honest, func(p *mosdtest.Prelude) { p.Weight++ })
	if err := os.WriteFile(liar, heavier, 0o644); err != nil {
		t.Fatal(err)
	}
	var report []byte
	stderr := captured(t, &os.Stderr, func() {
		report = captured(t, &os.Stdout, func() {
			if err := run(context.Background(), dir, mosaic.DefaultConfig(), 2, singleOpts{}, "", false, "", "", corpusOpts{}); err != nil {
				t.Fatal(err)
			}
		})
	})
	if lines := strings.Count(string(stderr), "\n"); lines != 1 || !strings.Contains(string(stderr), liar) {
		t.Fatalf("stderr = %q, want one line naming %s", stderr, liar)
	}
	if !strings.Contains(string(report), "unreadable") {
		t.Fatalf("the liar is not counted unreadable:\n%s", report)
	}
}

// TestLogLevelReachesTheEngine: -log-level alone turns the engine's
// logging on — at debug stderr carries the stage lifecycle lines, at the
// default warn it carries none.
func TestLogLevelReachesTheEngine(t *testing.T) {
	dir := t.TempDir()
	writeTestTrace(t, dir, "a.mosd")
	writeTestTrace(t, dir, "b.mosd")
	for _, tc := range []struct {
		level string
		lines bool
	}{{"debug", true}, {"warn", false}} {
		stderr := captured(t, &os.Stderr, func() {
			log, err := telemetry.NewLogger(os.Stderr, tc.level, "text")
			if err != nil {
				t.Fatal(err)
			}
			captured(t, &os.Stdout, func() {
				if err := run(context.Background(), dir, mosaic.DefaultConfig(), 2, singleOpts{}, "", false, "", "", corpusOpts{log: log}); err != nil {
					t.Fatal(err)
				}
			})
		})
		for _, line := range []string{`msg="stage started" stage=categorize`, `msg="stage finished" stage=categorize`} {
			if strings.Contains(string(stderr), line) != tc.lines {
				t.Errorf("-log-level %s: stderr has %q = %v, want %v:\n%s", tc.level, line, !tc.lines, tc.lines, stderr)
			}
		}
	}
}

// TestCorpusOutputIsTheFacades: the CLI's report and -json are, byte for
// byte, what a library caller gets from mosaic.AnalyzeCorpus rendered
// through the facade — the report layout exists once, in package report.
func TestCorpusOutputIsTheFacades(t *testing.T) {
	const fixture = "../../internal/darshan/testdata/v2corpus"
	jsonPath := filepath.Join(t.TempDir(), "out.json")
	gotReport := captured(t, &os.Stdout, func() {
		if err := run(context.Background(), fixture, mosaic.DefaultConfig(), 2, singleOpts{}, jsonPath, false, "", "", corpusOpts{}); err != nil {
			t.Fatal(err)
		}
	})
	gotJSON, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}

	a, err := mosaic.AnalyzeCorpus(fixture, mosaic.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wantReport, wantJSON bytes.Buffer
	a.WriteReport(&wantReport)
	results := make([]*mosaic.Result, len(a.Apps))
	for i, app := range a.Apps {
		results[i] = app.Result
	}
	enc := json.NewEncoder(&wantJSON)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotReport, wantReport.Bytes()) {
		t.Errorf("CLI report differs from the facade's:\n%s\n---\n%s", gotReport, wantReport.Bytes())
	}
	if !bytes.Equal(gotJSON, wantJSON.Bytes()) {
		t.Error("CLI -json differs from the facade's results")
	}
}
