// Command bench is the repository's end-to-end benchmark: it builds the
// real mosaic and mosaic-serve binaries, drives four workloads against
// them, checks every output, and reports what a client sees. With
// -trace 1 it also replays each workload's inputs in-process, one layer
// function at a time, and reports where the time goes. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// report is what one run of one workload produced.
type report struct {
	attempted int                // operations tried
	failed    int                // of which refused, errored, or answered wrongly
	values    map[string]float64 // metric name -> value
	notes     []string           // sample counts and tail percentiles, printed as comments
	problems  []string           // failed correctness checks
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// timed records a duration in reference time: what was measured, divided
// by the yardstick's slowdown over the stretch it was measured in.
func (r *report) timed(name string, measured, slowdown float64) {
	r.set(name, measured/slowdown)
	r.notef("%s: %s as measured, at slowdown %.3f", name, formatValue(measured), slowdown)
}

// rate is timed for a number per second of measured time.
func (r *report) rate(name string, measured, slowdown float64) {
	r.set(name, measured*slowdown)
	r.notef("%s: %s as measured, at slowdown %.3f", name, formatValue(measured), slowdown)
}

// problemf records a failed check. Each one makes the run incorrect.
func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// fail counts n operations as failed and says why.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.problemf(format, args...)
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*report, error)
}

var workloads = []workload{
	{"corpus", runCorpus},
	{"ingest", runIngest},
	{"query", runQuery},
	{"cluster_mixed", runClusterMixed},
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload: corpus, ingest, query or cluster_mixed (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 10, "how long each workload measures")
		trace   = flag.Int("trace", 0, "1: also replay the inputs layer by layer and report the per-layer metrics in place of the end-to-end ones")
		repeat  = flag.Int("repeat", 0, "run the suite this many times, seed+0..N-1, and report the spread of every end-to-end metric")
		root    = flag.String("root", "", "the checkout to build and measure (default: found from the working directory)")
		workdir = flag.String("workdir", "", "parent of the run's scratch directory (default: <root>/.bench_build)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *repeat, *root, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool, repeat int, root, workdir string) error {
	selected := workloads
	if name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	root, err := findRoot(root)
	if err != nil {
		return err
	}
	if workdir == "" {
		workdir = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	// SIGINT or SIGTERM cancels ctx, which kills every child started
	// under it; the deferred clean-up then runs as on any other failure.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{
		seed: seed, seconds: seconds, trace: trace,
		nproc: runtime.NumCPU(),
		root:  root, work: work,
		bin:   filepath.Join(root, ".bench_build", "bin"),
		procs: &procSet{},
	}
	defer func() {
		e.killAll()
		os.RemoveAll(work)
	}()
	if err := e.buildBinaries(ctx); err != nil {
		return err
	}
	if repeat > 0 {
		return runRepeated(ctx, e, selected, repeat)
	}
	ok := true
	for _, w := range selected {
		rep, err := runOne(ctx, e, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := printReport(w.name, rep, trace); err != nil {
			return err
		}
		ok = ok && len(rep.problems) == 0
	}
	if !ok {
		return errors.New("a correctness check failed")
	}
	return nil
}

// runOne runs a workload in a scratch directory of its own.
func runOne(ctx context.Context, e *env, w workload) (*report, error) {
	sub := *e
	sub.procs = &procSet{}
	sub.yard = startYardstick()
	defer sub.yard.end()
	sub.work = filepath.Join(e.work, w.name)
	if err := os.MkdirAll(sub.work, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		sub.killAll()
		os.RemoveAll(sub.work)
	}()
	rep, err := w.run(ctx, &sub)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return rep, nil
}

// findRoot locates the checkout: the given directory, else the working
// directory or its parent (the program is run from either the checkout
// or bench/).
func findRoot(given string) (string, error) {
	candidates := []string{given}
	if given == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		abs, err := filepath.Abs(c)
		if err != nil {
			return "", err
		}
		if _, err := os.Stat(filepath.Join(abs, "cmd", "mosaic-serve", "main.go")); err == nil {
			return abs, nil
		}
	}
	return "", errors.New("no checkout found: cmd/mosaic-serve is missing (run from the repository root or pass -root)")
}

// printReport prints every metric as "workload metric value unit", the
// notes and problems as comments, and last the one-line JSON result.
func printReport(name string, rep *report, trace bool) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]jsonMetric{},
	}
	for _, d := range defsFor(trace) {
		v, ok := rep.values[d.name]
		if !ok && !trace {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", name, d.name)
		}
		// A per-layer metric a workload does not report is a layer
		// function the workload never calls: its cost there is zero.
		fmt.Printf("%s %s %s %s\n", name, d.name, formatValue(v), d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	share := 0.0
	if rep.attempted > 0 {
		share = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("%s failed_share %s share\n", name, formatValue(share))
	for _, n := range rep.notes {
		fmt.Printf("# %s: %s\n", name, n)
	}
	for _, p := range rep.problems {
		fmt.Printf("# %s: CHECK FAILED: %s\n", name, p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// runRepeated runs the selected workloads n times, seed+0..n-1, in
// alternating order, and prints for every end-to-end metric its median,
// quartiles and spread (interquartile distance over the median, as the
// driver computes it). It fails when a spread exceeds the metric's
// bound, or when the even and the odd runs, taken as two sets, have
// medians that differ by more than the bound in the worse direction.
func runRepeated(ctx context.Context, e *env, selected []workload, n int) error {
	if n < 4 {
		return errors.New("-repeat needs at least 4 runs to form two sets")
	}
	samples := map[string]map[string][]float64{} // workload -> metric -> value per run
	for i := 0; i < n; i++ {
		order := append([]workload(nil), selected...)
		if i%2 == 1 {
			for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
				order[l], order[r] = order[r], order[l]
			}
		}
		sub := *e
		sub.seed = e.seed + int64(i)
		for _, w := range order {
			rep, err := runOne(ctx, &sub, w)
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", w.name, sub.seed, err)
			}
			if len(rep.problems) > 0 {
				return fmt.Errorf("%s (seed %d): %s", w.name, sub.seed, strings.Join(rep.problems, "; "))
			}
			if samples[w.name] == nil {
				samples[w.name] = map[string][]float64{}
			}
			for _, d := range defsFor(e.trace) {
				samples[w.name][d.name] = append(samples[w.name][d.name], rep.values[d.name])
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s done\n", i+1, n, w.name)
		}
	}
	fmt.Printf("%-14s %-28s %12s %12s %12s %8s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "sets", "bound")
	var over []string
	for _, w := range selected {
		for _, d := range defsFor(e.trace) {
			vals := samples[w.name][d.name]
			q1, q2, q3 := quartiles(vals)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			var even, odd []float64
			for i, v := range vals {
				if i%2 == 0 {
					even = append(even, v)
				} else {
					odd = append(odd, v)
				}
			}
			// How much worse the odd set's median is than the even set's.
			sets := 0.0
			if m := median(even); m != 0 {
				sets = (median(odd) - m) / m
				if d.better == "higher" {
					sets = -sets
				}
			}
			fmt.Printf("%-14s %-28s %12s %12s %12s %7.1f%% %+7.1f%% %7.0f%%\n",
				w.name, d.name, formatValue(q1), formatValue(q2), formatValue(q3), spread*100, sets*100, d.bound*100)
			runs := make([]string, len(vals))
			for i, v := range vals {
				runs[i] = formatValue(v)
			}
			fmt.Printf("#   every run: %s\n", strings.Join(runs, " "))
			if d.bound > 0 && d.name != "setup_s" && spread > d.bound {
				over = append(over, fmt.Sprintf("%s %s: spread %.1f%% over bound %.0f%%", w.name, d.name, spread*100, d.bound*100))
			}
			if d.bound > 0 && sets > d.bound {
				over = append(over, fmt.Sprintf("%s %s: second set worse by %.1f%%, bound %.0f%%", w.name, d.name, sets*100, d.bound*100))
			}
		}
	}
	sort.Strings(over)
	if len(over) > 0 {
		return fmt.Errorf("not steady:\n  %s", strings.Join(over, "\n  "))
	}
	return nil
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}
