// Package experiments reproduces every table and figure of the MOSAIC
// paper's evaluation (Section IV) on the synthetic Blue-Waters-shaped
// corpus, plus the ablation studies of DESIGN.md. Each experiment returns
// a structured result with the paper's reference values alongside the
// measured ones, so the harness can print paper-vs-measured tables and
// EXPERIMENTS.md can be regenerated.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/report"
	"github.com/mosaic-hpc/mosaic/internal/stats"
)

// CorpusRun is the shared machinery: generate the corpus and push it
// through the staged engine (funnel, parallel categorization,
// aggregation), keeping the per-stage breakdown for perf attribution.
type CorpusRun struct {
	Profile gen.Profile
	Config  core.Config

	Funnel  core.FunnelStats
	Results []AppOutcome
	Agg     *report.Aggregator

	Stages          []engine.StageSnapshot // per-stage counts and wall times
	GenerateTime    time.Duration          // wall time of the corpus stream, funneled as it goes (scan stage)
	CategorizeTime  time.Duration          // the rest of the run: categorizing the kept runs
	TracesPerSecond float64                // corpus traces funneled per second overall
}

// AppOutcome pairs one application's result with its run count and ground
// truth.
type AppOutcome struct {
	Result *core.Result
	Runs   int
	Truth  category.Set
}

// corpusSource streams a generated corpus into the engine's Scan stage:
// traces are materialized lazily in plan order, so memory stays flat
// even for whole-year-shaped corpora.
type corpusSource struct{ c *gen.Corpus }

func (s corpusSource) Scan(ctx context.Context, emit func(engine.Ref) bool) error {
	s.c.Each(func(r gen.Run) bool {
		return emit(engine.Ref{Job: r.Job})
	})
	return ctx.Err()
}

// Run executes the pipeline with the given worker count (<= 0: NumCPU).
func Run(p gen.Profile, cfg core.Config, workers int) (*CorpusRun, error) {
	return RunContext(context.Background(), p, cfg, workers)
}

// RunContext is Run with cancellation: the corpus streams through the
// staged engine, and cancelling ctx stops generation, funnel and
// categorization promptly.
func RunContext(ctx context.Context, p gen.Profile, cfg core.Config, workers int) (*CorpusRun, error) {
	return RunObserved(ctx, p, cfg, workers, nil)
}

// RunObserved is RunContext with an extra pipeline observer (e.g. a
// telemetry bundle recording per-trace spans) composed alongside the
// built-in stage-stats collector. obs may be nil.
func RunObserved(ctx context.Context, p gen.Profile, cfg core.Config, workers int, obs engine.Observer) (*CorpusRun, error) {
	cr := &CorpusRun{Profile: p, Config: cfg}
	st := engine.NewStats()
	var observer engine.Observer = st
	if obs != nil {
		observer = engine.MultiObserver(st, obs)
	}
	start := time.Now()
	res, err := engine.Run(ctx, corpusSource{gen.Plan(p)}, engine.Options{
		Config:   cfg,
		Workers:  workers,
		Observer: observer,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	cr.Funnel = res.Funnel
	cr.Agg = res.Agg
	cr.Results = make([]AppOutcome, len(res.Apps))
	for i, a := range res.Apps {
		cr.Results[i] = AppOutcome{Result: a.Result, Runs: a.Runs, Truth: category.ParseSet(a.Result.Truth[gen.TruthKey])}
	}
	cr.Stages = st.Snapshot()
	// Every stage starts with the run. The funnel decides as the corpus
	// streams past and releases no run before the stream ends, so the
	// categorize stage's time past the end of the scan is its own. (The
	// funnel stage itself finishes only once the categorize workers have
	// taken all but a channel's worth of its groups.)
	cr.GenerateTime = st.Stage(engine.StageScan).Wall
	cr.CategorizeTime = max(0, st.Stage(engine.StageCategorize).Wall-cr.GenerateTime)
	total := time.Since(start)
	if total > 0 {
		cr.TracesPerSecond = float64(cr.Funnel.Total) / total.Seconds()
	}
	return cr, nil
}

// DefaultProfile returns the standard experiment corpus: the generator
// defaults, deterministic at the given seed.
func DefaultProfile(seed int64) gen.Profile {
	p := gen.DefaultProfile()
	p.Seed = seed
	return p
}

// ScaledProfile shrinks the corpus for quick runs (tests, -short benches).
func ScaledProfile(seed int64, apps int) gen.Profile {
	p := DefaultProfile(seed)
	p.Apps = apps
	return p
}

// PaperRef holds a reference value from the paper for side-by-side
// printing.
type PaperRef struct {
	Name     string
	Paper    float64 // fraction in [0,1]
	Measured float64
}

func writeRefs(w io.Writer, title string, refs []PaperRef) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-44s %9s %9s\n", "metric", "paper", "measured")
	for _, r := range refs {
		fmt.Fprintf(w, "  %-44s %8.1f%% %8.1f%%\n", r.Name, r.Paper*100, r.Measured*100)
	}
}

// --- Figure 3: pre-processing funnel ---------------------------------

// Fig3Result compares the funnel fractions with the paper's.
type Fig3Result struct {
	Funnel core.FunnelStats
	Refs   []PaperRef
}

// Fig3 reports the funnel of a corpus run.
func Fig3(cr *CorpusRun) *Fig3Result {
	s := cr.Funnel
	return &Fig3Result{
		Funnel: s,
		Refs: []PaperRef{
			{Name: "corrupted fraction of corpus", Paper: 0.32, Measured: s.CorruptedFraction()},
			{Name: "unique apps among valid traces", Paper: 0.08, Measured: s.UniqueFraction()},
		},
	}
}

// Write renders the result.
func (r *Fig3Result) Write(w io.Writer) {
	report.WriteFunnel(w, r.Funnel)
	writeRefs(w, "Figure 3 reference points", r.Refs)
}

// --- Table II: periodic write (and read) detection --------------------

// Table2Result compares periodicity shares with the paper.
type Table2Result struct {
	WriteSingle, WriteAll report.PeriodicityRow
	ReadAll               report.PeriodicityRow
	Refs                  []PaperRef
}

// Table2 derives Table II from a corpus run.
func Table2(cr *CorpusRun) *Table2Result {
	ws, wa := cr.Agg.Periodicity(category.DirWrite)
	_, ra := cr.Agg.Periodicity(category.DirRead)
	return &Table2Result{
		WriteSingle: ws, WriteAll: wa, ReadAll: ra,
		Refs: []PaperRef{
			{Name: "periodic writes, single run", Paper: 0.02, Measured: ws.Periodic},
			{Name: "periodic writes, all runs", Paper: 0.08, Measured: wa.Periodic},
			{Name: "periodic reads, all runs (<2%)", Paper: 0.02, Measured: ra.Periodic},
		},
	}
}

// Write renders the result.
func (r *Table2Result) Write(w io.Writer, agg *report.Aggregator) {
	report.WritePeriodicity(w, agg, category.DirWrite)
	report.WritePeriodicity(w, agg, category.DirRead)
	writeRefs(w, "Table II reference points", r.Refs)
}

// --- Table III: temporality -------------------------------------------

// Table3Result compares the temporality distribution with the paper.
type Table3Result struct {
	ReadSingle, ReadAll   report.TemporalityRow
	WriteSingle, WriteAll report.TemporalityRow
	Refs                  []PaperRef
}

// Table3 derives Table III from a corpus run.
func Table3(cr *CorpusRun) *Table3Result {
	rs, ra := cr.Agg.Temporality(category.DirRead)
	ws, wa := cr.Agg.Temporality(category.DirWrite)
	return &Table3Result{
		ReadSingle: rs, ReadAll: ra, WriteSingle: ws, WriteAll: wa,
		Refs: []PaperRef{
			{Name: "read insignificant, single run", Paper: 0.85, Measured: rs.Insignificant},
			{Name: "read on start, single run", Paper: 0.09, Measured: rs.OnStart},
			{Name: "read steady, single run", Paper: 0.02, Measured: rs.Steady},
			{Name: "read insignificant, all runs", Paper: 0.27, Measured: ra.Insignificant},
			{Name: "read on start, all runs", Paper: 0.38, Measured: ra.OnStart},
			{Name: "read steady, all runs", Paper: 0.30, Measured: ra.Steady},
			{Name: "write insignificant, single run", Paper: 0.87, Measured: ws.Insignificant},
			{Name: "write on end, single run", Paper: 0.08, Measured: ws.OnEnd},
			{Name: "write steady, single run", Paper: 0.03, Measured: ws.Steady},
			{Name: "write insignificant, all runs", Paper: 0.47, Measured: wa.Insignificant},
			{Name: "write on end, all runs", Paper: 0.14, Measured: wa.OnEnd},
			{Name: "write steady, all runs", Paper: 0.37, Measured: wa.Steady},
		},
	}
}

// Write renders the result.
func (r *Table3Result) Write(w io.Writer, agg *report.Aggregator) {
	report.WriteTemporality(w, agg)
	writeRefs(w, "Table III reference points", r.Refs)
}

// --- Figure 4: metadata distribution -----------------------------------

// Fig4Result compares the metadata category distribution with the paper.
type Fig4Result struct {
	Single, All map[category.Category]float64
	Refs        []PaperRef
}

// Fig4 derives Figure 4 from a corpus run.
func Fig4(cr *CorpusRun) *Fig4Result {
	single, all := cr.Agg.MetadataDist()
	return &Fig4Result{
		Single: single, All: all,
		Refs: []PaperRef{
			{Name: "metadata high spike, all runs", Paper: 0.60, Measured: all[category.MetaHighSpike]},
			{Name: "metadata multiple spikes, all runs", Paper: 0.459, Measured: all[category.MetaMultipleSpikes]},
			{Name: "metadata high density, all runs", Paper: 0.13, Measured: all[category.MetaHighDensity]},
		},
	}
}

// Write renders the result.
func (r *Fig4Result) Write(w io.Writer, agg *report.Aggregator) {
	report.WriteMetadata(w, agg)
	writeRefs(w, "Figure 4 reference points", r.Refs)
}

// --- Figure 5 / Section IV-D: correlations -----------------------------

// Fig5Result compares the headline Jaccard/conditional correlations.
type Fig5Result struct {
	Corr  report.Correlations
	Pairs int
	Refs  []PaperRef
}

// Fig5 derives the correlation analysis from a corpus run.
func Fig5(cr *CorpusRun) *Fig5Result {
	c := cr.Agg.Correlations()
	return &Fig5Result{
		Corr:  c,
		Pairs: len(cr.Agg.Co().TopPairs(0.01)),
		Refs: []PaperRef{
			{Name: "P(write insig | read insig)", Paper: 0.95, Measured: c.InsigReadAlsoInsigWrite},
			{Name: "P(write on end | read on start)", Paper: 0.66, Measured: c.ReadStartWritesEnd},
			{Name: "P(low busy | periodic write)", Paper: 0.96, Measured: c.PeriodicWriteLowBusy},
		},
	}
}

// Write renders the result.
func (r *Fig5Result) Write(w io.Writer, agg *report.Aggregator) {
	report.WriteCorrelations(w, r.Corr)
	report.WriteJaccard(w, agg, 0.05)
	writeRefs(w, "Figure 5 / Section IV-D reference points", r.Refs)
}

// --- Section IV-E: accuracy via 512-trace sampling ---------------------

// AccuracyResult reports detected-vs-truth agreement over a random sample
// of valid traces, mirroring the paper's manual validation of 512 traces.
type AccuracyResult struct {
	Sampled       int
	Correct       int
	Accuracy      float64
	CILow, CIHigh float64        // 95% bootstrap confidence interval
	ByAxisErrors  map[string]int // axis name -> traces wrong on that axis
	ByArchetype   []ArchetypeAccuracy
	PaperAccuracy float64
}

// ArchetypeAccuracy scores the sampled traces of one generator archetype
// label by label: a detected category the truth holds is a true
// positive, one it lacks a false positive, and a true category not
// detected a false negative.
type ArchetypeAccuracy struct {
	Name       string
	Traces     int // sampled traces of the archetype
	Correct    int // traces whose whole category set was right
	TP, FP, FN int
}

// Precision is TP/(TP+FP): the share of detected labels that are true (1
// when nothing was detected).
func (a ArchetypeAccuracy) Precision() float64 { return ratio(a.TP, a.TP+a.FP) }

// Recall is TP/(TP+FN): the share of true labels that were detected (1
// when the truth is empty).
func (a ArchetypeAccuracy) Recall() float64 { return ratio(a.TP, a.TP+a.FN) }

func ratio(n, d int) float64 {
	if d == 0 {
		return 1
	}
	return float64(n) / float64(d)
}

// Accuracy samples sampleSize valid traces from the corpus and scores the
// detector against the generator's ground truth. A trace counts as
// correct only when the full detected category set equals the truth.
func Accuracy(p gen.Profile, cfg core.Config, sampleSize int, seed int64) (*AccuracyResult, error) {
	corpus := gen.Plan(p)
	// Sample among valid traces only (the paper samples categorized
	// traces): oversample, then filter.
	sample := corpus.Reservoir(sampleSize*2, seed)
	res := &AccuracyResult{ByAxisErrors: map[string]int{}, PaperAccuracy: 0.92}
	byArch := map[string]*ArchetypeAccuracy{}
	for _, r := range sample {
		if res.Sampled >= sampleSize {
			break
		}
		if r.Corrupted {
			continue
		}
		out, err := core.Categorize(r.Job, cfg)
		if err != nil {
			return nil, err
		}
		truth, got := gen.Truth(r.Job), out.Categories
		name := r.App.Archetype.Name
		a := byArch[name]
		if a == nil {
			a = &ArchetypeAccuracy{Name: name}
			byArch[name] = a
		}
		a.Traces++
		a.TP += (truth & got).Len()
		a.FP += (got &^ truth).Len()
		a.FN += (truth &^ got).Len()
		res.Sampled++
		if got.Equal(truth) {
			res.Correct++
			a.Correct++
			continue
		}
		for _, axis := range axisMismatches(truth, got) {
			res.ByAxisErrors[axis]++
		}
	}
	for _, a := range byArch {
		res.ByArchetype = append(res.ByArchetype, *a)
	}
	sort.Slice(res.ByArchetype, func(i, j int) bool { return res.ByArchetype[i].Name < res.ByArchetype[j].Name })
	if res.Sampled > 0 {
		res.Accuracy = float64(res.Correct) / float64(res.Sampled)
		res.CILow, res.CIHigh = stats.BootstrapProportionCI(res.Correct, res.Sampled, 0.95, 1000, seed)
	}
	return res, nil
}

// axisMismatches names, in alphabetical order, the axes on which the two
// sets differ.
func axisMismatches(truth, got category.Set) []string {
	var out []string
	for _, a := range []category.Axis{category.AxisMetadata, category.AxisPeriodicity, category.AxisTemporality} {
		if (truth^got)&a.Set() != 0 {
			out = append(out, a.String())
		}
	}
	return out
}

// Write renders the result.
func (r *AccuracyResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Accuracy (Section IV-E, %d-trace sample)\n", r.Sampled)
	fmt.Fprintf(w, "  correct: %d / %d = %.1f%% [95%% CI %.1f-%.1f]  (paper: %.0f%% on 512 traces)\n",
		r.Correct, r.Sampled, r.Accuracy*100, r.CILow*100, r.CIHigh*100, r.PaperAccuracy*100)
	axes := make([]string, 0, len(r.ByAxisErrors))
	for a := range r.ByAxisErrors {
		axes = append(axes, a)
	}
	sort.Strings(axes)
	for _, a := range axes {
		fmt.Fprintf(w, "  traces wrong on %-12s %d\n", a+":", r.ByAxisErrors[a])
	}
	fmt.Fprintf(w, "  %-26s %6s %8s %10s %8s\n", "archetype (label level)", "traces", "correct", "precision", "recall")
	for _, a := range r.ByArchetype {
		fmt.Fprintf(w, "  %-26s %6d %8d %9.1f%% %7.1f%%\n", a.Name, a.Traces, a.Correct, a.Precision()*100, a.Recall()*100)
	}
}
