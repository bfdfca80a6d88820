package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/mosaic-hpc/mosaic"
	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	funnelreport "github.com/mosaic-hpc/mosaic/internal/report"
)

// The corpus workload is the paper's own use: one `mosaic` process at a
// time categorizing a directory of traces. Decode and the funnel do
// nearly all the work, because only the heaviest run of each application
// survives deduplication; store, index, serve and ring are bypassed.

const (
	corpusFiles      = 1000 // traces in the directory; a pass takes about 0.4 s on 2 cores
	truthFloor       = 0.80 // least share of applications whose labels equal the generator's intent
	singlesPerRound  = 10   // single-trace runs after every pass
	startupsPerRound = 4    // start-ups after every pass
)

func runCorpus(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	dir := filepath.Join(e.work, "corpus")
	runs, err := timeSetup(e, rep, dir, func() ([]gen.Run, error) {
		runs, err := newPopulation().sample(e.seed, corpusFiles, false, e.nproc)
		if err != nil {
			return nil, err
		}
		return runs, writeCorpus(dir, runs, e.nproc)
	})
	if err != nil {
		return nil, err
	}

	// The oracle: the library facade over the same jobs, in file order.
	jobs := make([]*mosaic.Job, len(runs))
	for i, r := range runs {
		jobs[i] = r.Job
	}
	want, err := mosaic.AnalyzeJobsContext(ctx, jobs, mosaic.Options{Workers: e.nproc})
	if err != nil {
		return nil, fmt.Errorf("in-process analysis: %w", err)
	}
	var wantFunnel bytes.Buffer
	funnelreport.WriteFunnel(&wantFunnel, want.Funnel)
	agree := 0
	for _, a := range want.Apps {
		if a.Result.Categories.Equal(category.ParseSet(a.Result.Truth[gen.TruthKey])) {
			agree++
		}
	}
	if share := float64(agree) / float64(len(want.Apps)); share < truthFloor {
		rep.problemf("labels equal the generator's intent on %.1f%% of %d applications, floor %.0f%%",
			share*100, len(want.Apps), truthFloor*100)
	} else {
		rep.notef("labels equal the generator's intent on %.1f%% of %d applications", share*100, len(want.Apps))
	}

	outPath := filepath.Join(e.work, "results.json")
	pass := func() (wall, cpu time.Duration, rss float64, err error) {
		var stdout bytes.Buffer
		start := time.Now()
		p, err := e.start(ctx, "mosaic-corpus", e.mosaic(), &stdout,
			"-workers", strconv.Itoa(e.nproc), "-json", outPath, dir)
		if err != nil {
			return 0, 0, 0, err
		}
		peak := p.watchRSS()
		werr := p.wait()
		wall = time.Since(start)
		cpu, rss = p.cpuUsed(), peak()
		rep.attempted++
		if werr != nil {
			rep.fail(1, "mosaic over the corpus: %v\n%s", werr, p.stderrTail())
			return wall, cpu, rss, nil
		}
		if msg := checkCorpusOutput(stdout.Bytes(), wantFunnel.Bytes(), outPath, want); msg != "" {
			rep.fail(1, "%s", msg)
		}
		return wall, cpu, rss, nil
	}

	// single is single-trace mode, what someone inspecting one job waits
	// for: exec to exit of `mosaic <file>` on a seeded valid trace.
	rng := rand.New(rand.NewSource(e.seed))
	single := func() (float64, error) {
		i := rng.Intn(len(runs))
		for runs[i].Corrupted {
			i = rng.Intn(len(runs))
		}
		path := filepath.Join(dir, fmt.Sprintf("t%06d.mosd", i))
		res, err := mosaic.Categorize(runs[i].Job, mosaic.DefaultConfig())
		if err != nil {
			return 0, err
		}
		var stdout bytes.Buffer
		t0 := time.Now()
		p, err := e.start(ctx, "mosaic-single", e.mosaic(), &stdout, path)
		if err != nil {
			return 0, err
		}
		werr := p.wait()
		took := ms(time.Since(t0))
		rep.attempted++
		if wantLine := path + ": " + strings.Join(res.Labels, ", ") + "\n"; werr != nil || stdout.String() != wantLine {
			rep.fail(1, "mosaic %s: %v, printed %q, want %q", path, werr, stdout.String(), wantLine)
		}
		return took, nil
	}
	// startup is exec to exit on the usage path: a process that does no work.
	startup := func() (float64, error) {
		t0 := time.Now()
		p, err := e.start(ctx, "mosaic-usage", e.mosaic(), nil)
		if err != nil {
			return 0, err
		}
		werr := p.wait()
		took := time.Since(t0).Seconds()
		rep.attempted++
		if p.cmd.ProcessState.ExitCode() != 2 {
			rep.fail(1, "mosaic with no argument: %v, want exit status 2", werr)
		}
		return took, nil
	}

	// Closed loop, one process at a time. The first pass pages the binary
	// and the files in and is discarded. Every round is a pass, then a few
	// single-trace runs and start-ups: spread over the whole run, so that
	// a burst of interference from outside hits a few samples of each
	// kind and not every sample of one.
	if _, _, _, err := pass(); err != nil {
		return nil, err
	}
	var walls, singles, startups []float64
	var cpuSum time.Duration
	var peak float64
	start := time.Now()
	for len(walls) < 3 || time.Since(start) < e.dur(1) {
		wall, cpu, rss, err := pass()
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		cpuSum += cpu
		peak = max(peak, rss)
		for k := 0; k < singlesPerRound; k++ {
			took, err := single()
			if err != nil {
				return nil, err
			}
			singles = append(singles, took)
		}
		for k := 0; k < startupsPerRound; k++ {
			took, err := startup()
			if err != nil {
				return nil, err
			}
			startups = append(startups, took)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	slow, err := e.yard.slowdown(start, time.Now())
	if err != nil {
		return nil, err
	}
	passS := median(walls)
	opens, err := summarize("single-trace runs", singles)
	if err != nil {
		return nil, err
	}
	rep.rate("work_per_s", corpusFiles/passS, slow)
	rep.timed("op_p50_ms", opens.p50, slow)
	rep.set("engine.pass_p50_ms", passS*1000)
	rep.set("engine.startup_ms", median(startups)*1000)
	rep.timed("cpu_ms_per_op", ms(cpuSum)/float64(corpusFiles*len(walls)), slow)
	rep.set("peak_rss_mb", peak)
	rep.set("loadgen.slowdown", slow)
	rep.notef("work_per_s, engine.pass_p50_ms: median of %d passes over %d files", len(walls), corpusFiles)
	rep.notef("op_p50_ms: %d single-trace runs; engine.startup_ms: median of %d start-ups", opens.n, len(startups))

	if e.trace {
		if err := traceCorpus(ctx, e, rep, dir, passS); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkCorpusOutput compares one pass's report and JSON results with the
// in-process analysis; it returns "" when they agree.
func checkCorpusOutput(stdout, wantFunnel []byte, outPath string, want *mosaic.Analysis) string {
	if !bytes.HasPrefix(stdout, wantFunnel) {
		return fmt.Sprintf("funnel differs from the in-process analysis:\n%.400s\nwant\n%s", stdout, wantFunnel)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		return err.Error()
	}
	var got []struct {
		User   string   `json:"user"`
		App    string   `json:"app"`
		Labels []string `json:"categories"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		return "decoding -json output: " + err.Error()
	}
	if len(got) != len(want.Apps) {
		return fmt.Sprintf("%d applications in -json output, want %d", len(got), len(want.Apps))
	}
	for i, g := range got {
		w := want.Apps[i].Result
		if g.User != w.User || g.App != w.App || !slices.Equal(g.Labels, w.Labels) {
			return fmt.Sprintf("application %d: got %s/%s %v, want %s/%s %v", i, g.User, g.App, g.Labels, w.User, w.App, w.Labels)
		}
	}
	return ""
}
