package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/dsp"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/interval"
	"github.com/mosaic-hpc/mosaic/internal/parallel"
	"github.com/mosaic-hpc/mosaic/internal/segment"
)

// --- Section III-B1: per-application categorization stability ----------

// StabilityResult reports how often executions of the same application are
// categorized identically, the hypothesis behind deduplication (the paper
// measures ~97% for LAMMPS and ~80% for NEK5000).
type StabilityResult struct {
	PerArchetype map[string]float64 // archetype -> fraction of runs matching the app's modal category set
	Refs         []PaperRef
}

// Stability generates appCount applications per archetype, categorizes
// runsPerApp executions of each, and measures agreement with the modal
// category set.
func Stability(seed int64, appCount, runsPerApp int, cfg core.Config) (*StabilityResult, error) {
	res := &StabilityResult{PerArchetype: map[string]float64{}}
	rng := rand.New(rand.NewSource(seed))
	for _, arch := range gen.DefaultArchetypes() {
		var agree, total int
		for a := 0; a < appCount; a++ {
			params := arch.Params(rng)
			sets := make([]category.Set, 0, runsPerApp)
			for r := 0; r < runsPerApp; r++ {
				runRng := rand.New(rand.NewSource(seed + int64(a*1000+r)))
				b := gen.NewBuilder(runRng, "stab", arch.Exe, uint64(a*runsPerApp+r+1), params.Ranks, params.RuntimeBase*(0.9+runRng.Float64()*0.25))
				arch.Build(b, params)
				out, err := core.Categorize(b.Job(), cfg)
				if err != nil {
					return nil, err
				}
				sets = append(sets, out.Categories)
			}
			modal := modalSet(sets)
			for _, s := range sets {
				total++
				if s.Equal(modal) {
					agree++
				}
			}
		}
		if total > 0 {
			res.PerArchetype[arch.Name] = float64(agree) / float64(total)
		}
	}
	res.Refs = []PaperRef{
		{Name: "LAMMPS-like stability (checkpointer-minute)", Paper: 0.97, Measured: res.PerArchetype["checkpointer-minute"]},
		{Name: "NEK5000-like stability (checkpointer-hour)", Paper: 0.80, Measured: res.PerArchetype["checkpointer-hour"]},
	}
	return res, nil
}

func modalSet(sets []category.Set) category.Set {
	best, bestN := category.Set(0), -1
	for _, s := range sets {
		n := 0
		for _, o := range sets {
			if s.Equal(o) {
				n++
			}
		}
		if n > bestN {
			best, bestN = s, n
		}
	}
	return best
}

// Write renders the result.
func (r *StabilityResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Per-application categorization stability (Section III-B1)\n")
	for _, arch := range gen.DefaultArchetypes() {
		if v, ok := r.PerArchetype[arch.Name]; ok {
			fmt.Fprintf(w, "  %-26s %6.1f%%\n", arch.Name, v*100)
		}
	}
	writeRefs(w, "Reference points", r.Refs)
}

// --- Section IV-E: performance and parallel scaling --------------------

// PerfResult reports pipeline throughput at several worker counts.
type PerfResult struct {
	Traces   int
	Apps     int
	Workers  []int
	Elapsed  []time.Duration
	PerTrace []time.Duration // mean categorization latency per unique app
	Speedup  []float64       // relative to 1 worker
}

// Perf measures categorization wall time at each worker count over the
// same deduplicated corpus.
func Perf(p gen.Profile, cfg core.Config, workerCounts []int) (*PerfResult, error) {
	corpus := gen.Plan(p)
	pre := core.NewPreprocessor()
	corpus.Each(func(r gen.Run) bool {
		pre.Add(r.Job, nil)
		return true
	})
	groups := pre.Groups()
	res := &PerfResult{Traces: pre.Stats().Total, Apps: len(groups)}
	var base time.Duration
	for _, wkr := range workerCounts {
		start := time.Now()
		var firstErr error
		parallel.ForEach(wkr, len(groups), func(i int) {
			if _, err := core.Categorize(groups[i].Heaviest, cfg); err != nil && firstErr == nil {
				firstErr = err
			}
		})
		if firstErr != nil {
			return nil, firstErr
		}
		el := time.Since(start)
		if len(res.Elapsed) == 0 {
			base = el
		}
		res.Workers = append(res.Workers, wkr)
		res.Elapsed = append(res.Elapsed, el)
		res.PerTrace = append(res.PerTrace, el/time.Duration(maxInt(1, len(groups))))
		res.Speedup = append(res.Speedup, float64(base)/float64(el))
	}
	return res, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Write renders the result.
func (r *PerfResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Pipeline performance (Section IV-E; paper: full year in 165 min on 64 cores)\n")
	fmt.Fprintf(w, "  corpus: %d traces, %d unique apps, GOMAXPROCS=%d\n", r.Traces, r.Apps, runtime.GOMAXPROCS(0))
	for i := range r.Workers {
		fmt.Fprintf(w, "  workers=%-3d elapsed=%-12v per-app=%-10v speedup=%.2fx\n",
			r.Workers[i], r.Elapsed[i].Round(time.Millisecond), r.PerTrace[i].Round(time.Microsecond), r.Speedup[i])
	}
}

// --- Ablations ----------------------------------------------------------

// AblationResult reports detection quality under parameter sweeps and the
// DFT baseline comparison.
type AblationResult struct {
	// MergeSweep: neighbor-merge thresholds -> periodic write detection
	// recall on checkpointer traces.
	MergeSweep map[string]float64
	// BandwidthSweep: Mean Shift bandwidth -> periodic recall / false
	// positive rate pairs.
	BandwidthRecall map[float64]float64
	BandwidthFP     map[float64]float64
	// Detectors: detector name -> (recall on periodic, false positives on
	// non-periodic, recall on two interleaved periodic ops).
	DetectorRecall map[string]float64
	DetectorFP     map[string]float64
	DetectorMixed  map[string]float64
}

// periodicOps extracts merged write ops from a generated trace.
func periodicOps(j *darshan.Job, cfg core.Config) []interval.Interval {
	pol := interval.NeighborPolicy{RuntimeFraction: cfg.MergeRuntimeFraction, NeighborFraction: cfg.MergeNeighborFraction}
	merged, _, _ := interval.MergeInPlace(j.WriteIntervals(), j.Runtime, pol)
	return merged
}

// meanShiftPeriodic reports whether the segmentation detector finds a
// periodic group.
func meanShiftPeriodic(ops []interval.Interval, runtime float64, bandwidth float64) bool {
	segs := segment.Split(ops, runtime)
	dc := segment.DefaultDetectConfig(runtime)
	if bandwidth > 0 {
		dc.Bandwidth = bandwidth
	}
	groups, err := segment.Detect(segs, dc)
	return err == nil && len(groups) > 0
}

// Ablation runs the parameter sweeps on n checkpointer traces and n
// non-periodic traces, plus a mixed two-period workload.
func Ablation(seed int64, n int, cfg core.Config) (*AblationResult, error) {
	res := &AblationResult{
		MergeSweep:      map[string]float64{},
		BandwidthRecall: map[float64]float64{},
		BandwidthFP:     map[float64]float64{},
		DetectorRecall:  map[string]float64{},
		DetectorFP:      map[string]float64{},
		DetectorMixed:   map[string]float64{},
	}
	rng := rand.New(rand.NewSource(seed))
	ckpt, _ := gen.ArchetypeByName("checkpointer-minute")
	rcw, _ := gen.ArchetypeByName("read-compute-write")

	makeTrace := func(arch gen.Archetype, i int) *darshan.Job {
		p := arch.Params(rng)
		b := gen.NewBuilder(rng, "abl", arch.Exe, uint64(i+1), p.Ranks, p.RuntimeBase)
		arch.Build(b, p)
		return b.Job()
	}
	periodicJobs := make([]*darshan.Job, n)
	flatJobs := make([]*darshan.Job, n)
	for i := 0; i < n; i++ {
		periodicJobs[i] = makeTrace(ckpt, i)
		flatJobs[i] = makeTrace(rcw, n+i)
	}

	// Merge-threshold sweep: overly aggressive neighbor merging fuses
	// checkpoints together and destroys periodicity.
	for _, mp := range []struct {
		name string
		rf   float64
	}{{"rf=0 (off)", 0}, {"rf=0.001 (paper)", 0.001}, {"rf=0.01", 0.01}, {"rf=0.1", 0.1}} {
		c := cfg
		c.MergeRuntimeFraction = mp.rf
		hits := 0
		for _, j := range periodicJobs {
			if meanShiftPeriodic(periodicOps(j, c), j.Runtime, cfg.MeanShiftBandwidth) {
				hits++
			}
		}
		res.MergeSweep[mp.name] = float64(hits) / float64(n)
	}

	// Bandwidth sweep.
	for _, bw := range []float64{0.005, 0.02, 0.05, 0.15, 0.5} {
		hits, fps := 0, 0
		for _, j := range periodicJobs {
			if meanShiftPeriodic(periodicOps(j, cfg), j.Runtime, bw) {
				hits++
			}
		}
		for _, j := range flatJobs {
			if meanShiftPeriodic(periodicOps(j, cfg), j.Runtime, bw) {
				fps++
			}
		}
		res.BandwidthRecall[bw] = float64(hits) / float64(n)
		res.BandwidthFP[bw] = float64(fps) / float64(n)
	}

	// Detector comparison: Mean Shift segmentation vs DFT vs
	// autocorrelation, including the paper's "two intricate periodic
	// behaviors" argument (a mixed workload with two interleaved periods).
	type detector struct {
		name string
		fn   func(ops []interval.Interval, runtime float64) int // number of periodic behaviours found
	}
	dets := []detector{
		{"meanshift", func(ops []interval.Interval, rt float64) int {
			segs := segment.Split(ops, rt)
			groups, _ := segment.Detect(segs, segment.DefaultDetectConfig(rt))
			return len(groups)
		}},
		{"dft", func(ops []interval.Interval, rt float64) int {
			if dsp.DetectPeriodicity(ops, rt, dsp.DetectorConfig{}).Periodic {
				return 1
			}
			return 0
		}},
		{"dft-iter", func(ops []interval.Interval, rt float64) int {
			return len(dsp.DetectMultiplePeriodicities(ops, rt, 3, dsp.DetectorConfig{}).Periods)
		}},
		{"autocorr", func(ops []interval.Interval, rt float64) int {
			if dsp.DetectByAutocorrelation(ops, rt, dsp.DetectorConfig{}).Periodic {
				return 1
			}
			return 0
		}},
	}
	mixed := make([]*darshan.Job, n)
	for i := 0; i < n; i++ {
		mixed[i] = mixedPeriodicTrace(rng, uint64(i+1))
	}
	for _, d := range dets {
		hits, fps, mixedOK := 0, 0, 0
		for _, j := range periodicJobs {
			if d.fn(periodicOps(j, cfg), j.Runtime) >= 1 {
				hits++
			}
		}
		for _, j := range flatJobs {
			if d.fn(periodicOps(j, cfg), j.Runtime) >= 1 {
				fps++
			}
		}
		for _, j := range mixed {
			// Success on the mixed workload means identifying BOTH
			// periodic operations, which a single dominant frequency
			// cannot express.
			if d.fn(periodicOps(j, cfg), j.Runtime) >= 2 {
				mixedOK++
			}
		}
		res.DetectorRecall[d.name] = float64(hits) / float64(n)
		res.DetectorFP[d.name] = float64(fps) / float64(n)
		res.DetectorMixed[d.name] = float64(mixedOK) / float64(n)
	}
	return res, nil
}

// mixedPeriodicTrace builds an application with two interleaved periodic
// write operations of distinct period and volume — the case the paper
// says frequency techniques fail to distinguish.
func mixedPeriodicTrace(rng *rand.Rand, id uint64) *darshan.Job {
	b := gen.NewBuilder(rng, "abl", "/apps/bin/mixed", id, 64, 7200)
	b.Periodic(gen.PeriodicSpec{Period: 300, PhaseFrac: 0.05, BytesPer: 2 << 30, Records: 16, Jitter: 0.01, Write: true})
	b.Periodic(gen.PeriodicSpec{Period: 730, PhaseFrac: 0.04, BytesPer: 48 << 30, Records: 16, Jitter: 0.01, Write: true, StartAt: 95})
	return b.Job()
}

// Write renders the result.
func (r *AblationResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Ablation: neighbor-merge runtime fraction -> periodic write recall\n")
	for _, k := range []string{"rf=0 (off)", "rf=0.001 (paper)", "rf=0.01", "rf=0.1"} {
		fmt.Fprintf(w, "  %-18s %6.1f%%\n", k, r.MergeSweep[k]*100)
	}
	fmt.Fprintf(w, "Ablation: Mean Shift bandwidth -> recall / false positives\n")
	for _, bw := range []float64{0.005, 0.02, 0.05, 0.15, 0.5} {
		fmt.Fprintf(w, "  bw=%-6g recall=%6.1f%%  false-positive=%6.1f%%\n", bw, r.BandwidthRecall[bw]*100, r.BandwidthFP[bw]*100)
	}
	fmt.Fprintf(w, "Ablation: detector comparison (recall / FP / both-of-two-periods)\n")
	for _, d := range []string{"meanshift", "dft", "dft-iter", "autocorr"} {
		fmt.Fprintf(w, "  %-10s recall=%6.1f%%  fp=%6.1f%%  mixed=%6.1f%%\n",
			d, r.DetectorRecall[d]*100, r.DetectorFP[d]*100, r.DetectorMixed[d]*100)
	}
}
