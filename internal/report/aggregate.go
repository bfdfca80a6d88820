// Package report aggregates per-trace categorization results into the
// statistics MOSAIC outputs (step 4 of the workflow): single-run and
// all-runs category distributions, periodicity and temporality tables,
// the metadata category distribution and the Jaccard co-occurrence
// heatmap. It also renders them as text tables mirroring the paper's
// Tables II/III and Figures 3/4/5.
package report

import (
	"math/bits"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/stats"
)

// Aggregator accumulates categorization results. Each result represents
// one deduplicated application (the heaviest run); runs is the number of
// executions the application had, used to weight the "all runs"
// distributions. The paper contrasts the two views: single-run describes
// the behaviour of applications, all-runs the load on the file system.
type Aggregator struct {
	apps int
	runs int

	all [category.N]int // runs carrying the category (weighted), by its bit

	co stats.CoMatrix // app-level counts and co-occurrence for Jaccard/conditionals

	readPeriods  []float64 // dominant read periods of periodic apps
	writePeriods []float64

	writeMagSingle map[category.PeriodMagnitude]int
	writeMagAll    map[category.PeriodMagnitude]int
	readMagSingle  map[category.PeriodMagnitude]int
	readMagAll     map[category.PeriodMagnitude]int
}

// NewAggregator returns an empty aggregator tracking the full closed
// category set.
func NewAggregator() *Aggregator {
	return &Aggregator{
		writeMagSingle: make(map[category.PeriodMagnitude]int),
		writeMagAll:    make(map[category.PeriodMagnitude]int),
		readMagSingle:  make(map[category.PeriodMagnitude]int),
		readMagAll:     make(map[category.PeriodMagnitude]int),
	}
}

// Add records one application's result with its execution count.
func (a *Aggregator) Add(res *core.Result, runs int) {
	if runs < 1 {
		runs = 1
	}
	a.apps++
	a.runs += runs
	for b := uint64(res.Categories & category.Closed); b != 0; b &= b - 1 {
		a.all[bits.TrailingZeros64(b)] += runs
	}
	a.co.Observe(res.Categories)

	if res.Write.Periodic() {
		a.writePeriods = append(a.writePeriods, res.Write.DominantPeriod())
		m := category.MagnitudeOf(res.Write.DominantPeriod())
		a.writeMagSingle[m]++
		a.writeMagAll[m] += runs
	}
	if res.Read.Periodic() {
		a.readPeriods = append(a.readPeriods, res.Read.DominantPeriod())
		m := category.MagnitudeOf(res.Read.DominantPeriod())
		a.readMagSingle[m]++
		a.readMagAll[m] += runs
	}
}

// Apps returns the number of applications aggregated.
func (a *Aggregator) Apps() int { return a.apps }

// Runs returns the total number of executions represented.
func (a *Aggregator) Runs() int { return a.runs }

// SingleRate returns the fraction of applications carrying the category.
func (a *Aggregator) SingleRate(c category.Category) float64 { return a.co.Rate(c) }

// AllRate returns the fraction of executions carrying the category.
func (a *Aggregator) AllRate(c category.Category) float64 {
	bit, ok := c.Bit()
	if !ok || a.runs == 0 {
		return 0
	}
	return float64(a.all[bit]) / float64(a.runs)
}

// Co exposes the application-level co-occurrence matrix.
func (a *Aggregator) Co() *stats.CoMatrix { return &a.co }

// TemporalityRow is one row of Table III: the distribution of the main
// temporality labels for one direction and one population view.
type TemporalityRow struct {
	View          string  `json:"view"` // "single" or "all"
	Insignificant float64 `json:"insignificant"`
	OnStart       float64 `json:"on_start"`
	OnEnd         float64 `json:"on_end"`
	Steady        float64 `json:"steady"`
	Others        float64 `json:"others"`
}

// Temporality builds the Table III rows for a direction.
func (a *Aggregator) Temporality(dir category.Direction) (single, all TemporalityRow) {
	build := func(rate func(category.Category) float64, view string) TemporalityRow {
		row := TemporalityRow{View: view}
		row.Insignificant = rate(category.Temporal(dir, category.Insignificant))
		row.OnStart = rate(category.Temporal(dir, category.OnStart))
		row.OnEnd = rate(category.Temporal(dir, category.OnEnd))
		row.Steady = rate(category.Temporal(dir, category.Steady))
		for _, k := range []category.TemporalKind{category.AfterStart, category.BeforeEnd, category.AfterStartBeforeEnd} {
			row.Others += rate(category.Temporal(dir, k))
		}
		return row
	}
	return build(a.SingleRate, "single"), build(a.AllRate, "all")
}

// PeriodicityRow is one row of Table II: periodic vs non-periodic shares
// and the period-magnitude breakdown for one population view.
type PeriodicityRow struct {
	View        string                               `json:"view"`
	NonPeriodic float64                              `json:"non_periodic"`
	Periodic    float64                              `json:"periodic"`
	Magnitudes  map[category.PeriodMagnitude]float64 `json:"-"`
}

// Periodicity builds the Table II rows for a direction.
func (a *Aggregator) Periodicity(dir category.Direction) (single, all PeriodicityRow) {
	base := category.Periodic(dir)
	magSingle, magAll := a.writeMagSingle, a.writeMagAll
	if dir == category.DirRead {
		magSingle, magAll = a.readMagSingle, a.readMagAll
	}
	mk := func(rate float64, mags map[category.PeriodMagnitude]int, total int, view string) PeriodicityRow {
		row := PeriodicityRow{View: view, Periodic: rate, NonPeriodic: 1 - rate, Magnitudes: map[category.PeriodMagnitude]float64{}}
		if total > 0 {
			for m, n := range mags {
				row.Magnitudes[m] = float64(n) / float64(total)
			}
		}
		return row
	}
	return mk(a.SingleRate(base), magSingle, a.apps, "single"),
		mk(a.AllRate(base), magAll, a.runs, "all")
}

// MetadataDist returns the single-run and all-runs rates of every metadata
// category (Figure 4).
func (a *Aggregator) MetadataDist() (single, all map[category.Category]float64) {
	single = make(map[category.Category]float64)
	all = make(map[category.Category]float64)
	for _, c := range []category.Category{
		category.MetaHighSpike, category.MetaMultipleSpikes,
		category.MetaHighDensity, category.MetaInsignificantLoad,
	} {
		single[c] = a.SingleRate(c)
		all[c] = a.AllRate(c)
	}
	return single, all
}

// Periods returns the dominant detected periods (seconds) for the
// direction, for reporting period ranges like Table II's Min/Hour split.
func (a *Aggregator) Periods(dir category.Direction) []float64 {
	if dir == category.DirRead {
		return a.readPeriods
	}
	return a.writePeriods
}

// Correlations gathers the Section IV-D statements so the bench can print
// paper-vs-measured values.
type Correlations struct {
	// MetaDenseReadStartOrWriteEnd: P(read_on_start ∪ write_on_end | high
	// density and high spikes).
	MetaDenseReadStartOrWriteEnd float64 `json:"meta_dense_read_start_or_write_end"`
	// InsigReadAlsoInsigWrite: P(write insignificant | read
	// insignificant) — paper: 95%.
	InsigReadAlsoInsigWrite float64 `json:"insig_read_also_insig_write"`
	// ReadStartWritesEnd: P(write_on_end | read_on_start) — paper: 66%.
	ReadStartWritesEnd float64 `json:"read_start_writes_end"`
	// PeriodicWriteLowBusy: P(low busy | write periodic) — paper: 96%.
	PeriodicWriteLowBusy float64 `json:"periodic_write_low_busy"`
}

// Correlations computes the headline correlations over the application
// population.
func (a *Aggregator) Correlations() Correlations {
	co := a.co
	c := Correlations{
		InsigReadAlsoInsigWrite: co.Conditional(
			category.Temporal(category.DirWrite, category.Insignificant),
			category.Temporal(category.DirRead, category.Insignificant)),
		ReadStartWritesEnd: co.Conditional(
			category.Temporal(category.DirWrite, category.OnEnd),
			category.Temporal(category.DirRead, category.OnStart)),
	}
	// P(low busy | periodic write): low-busy carriers among periodic
	// writers.
	if n := co.Count(category.Periodic(category.DirWrite)); n > 0 {
		c.PeriodicWriteLowBusy = co.Conditional(
			category.PeriodicBusy(category.DirWrite, false),
			category.Periodic(category.DirWrite))
	}
	// Density+spikes → read on start or write on end: approximate the
	// union with the max of the two conditionals (the matrix stores
	// pairwise counts only; exact union would need triple counts).
	p1 := co.Conditional(category.Temporal(category.DirRead, category.OnStart), category.MetaHighDensity)
	p2 := co.Conditional(category.Temporal(category.DirWrite, category.OnEnd), category.MetaHighDensity)
	if p1 > p2 {
		c.MetaDenseReadStartOrWriteEnd = p1
	} else {
		c.MetaDenseReadStartOrWriteEnd = p2
	}
	return c
}
