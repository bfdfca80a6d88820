package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/stats"
)

// Text rendering of the aggregate statistics: plain ASCII tables shaped
// like the paper's tables and figures, suitable for terminals and logs.

func pct(v float64) string { return fmt.Sprintf("%5.1f%%", v*100) }

// WriteReport renders the complete text report of a corpus run: funnel,
// periodicity and temporality tables, metadata distribution, correlations
// and the Jaccard pair list.
func WriteReport(w io.Writer, f core.FunnelStats, a *Aggregator) {
	WriteFunnel(w, f)
	fmt.Fprintln(w)
	WritePeriodicity(w, a, category.DirWrite)
	WritePeriodicity(w, a, category.DirRead)
	fmt.Fprintln(w)
	WriteTemporality(w, a)
	fmt.Fprintln(w)
	WriteMetadata(w, a)
	fmt.Fprintln(w)
	WriteCorrelations(w, a.Correlations())
	fmt.Fprintln(w)
	WriteJaccard(w, a, 0.01)
}

// WriteFunnel renders the pre-processing funnel (Figure 3).
func WriteFunnel(w io.Writer, s core.FunnelStats) {
	fmt.Fprintf(w, "Pre-processing funnel (Figure 3)\n")
	fmt.Fprintf(w, "  traces scanned     %8d\n", s.Total)
	fmt.Fprintf(w, "  corrupted, evicted %8d  (%s of total)\n", s.Corrupted, pct(s.CorruptedFraction()))
	fmt.Fprintf(w, "  valid              %8d\n", s.Valid)
	fmt.Fprintf(w, "  unique apps kept   %8d  (%s of valid)\n", s.UniqueApps, pct(s.UniqueFraction()))
	if len(s.ByReason) > 0 {
		reasons := make([]string, 0, len(s.ByReason))
		for r := range s.ByReason {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		fmt.Fprintf(w, "  eviction reasons:\n")
		for _, r := range reasons {
			fmt.Fprintf(w, "    %-22s %8d\n", r, s.ByReason[r])
		}
	}
}

// WriteTemporality renders Table III for both directions.
func WriteTemporality(w io.Writer, a *Aggregator) {
	for _, dir := range []category.Direction{category.DirRead, category.DirWrite} {
		single, all := a.Temporality(dir)
		peak := "On start"
		peakOf := func(r TemporalityRow) float64 { return r.OnStart }
		if dir == category.DirWrite {
			peak = "On end"
			peakOf = func(r TemporalityRow) float64 { return r.OnEnd }
		}
		fmt.Fprintf(w, "%s temporality (Table III)\n", strings.Title(dir.String()))
		fmt.Fprintf(w, "  %-12s %-13s %-9s %-8s %-8s\n", "Distrib.", "Insignificant", peak, "Steady", "Others")
		for _, row := range []TemporalityRow{single, all} {
			label := "Single run"
			if row.View == "all" {
				label = "All runs"
			}
			fmt.Fprintf(w, "  %-12s %-13s %-9s %-8s %-8s\n",
				label, pct(row.Insignificant), pct(peakOf(row)), pct(row.Steady), pct(row.Others))
		}
	}
}

// WritePeriodicity renders Table II for the given direction.
func WritePeriodicity(w io.Writer, a *Aggregator, dir category.Direction) {
	single, all := a.Periodicity(dir)
	fmt.Fprintf(w, "Periodic %s operations (Table II)\n", dir)
	fmt.Fprintf(w, "  %-12s %-13s %-9s   magnitudes\n", "Execution", "Non-Periodic", "Periodic")
	for _, row := range []PeriodicityRow{single, all} {
		label := "Single run"
		if row.View == "all" {
			label = "All runs"
		}
		mags := make([]string, 0, 4)
		for _, m := range []category.PeriodMagnitude{category.MagSecond, category.MagMinute, category.MagHour, category.MagDayOrMore} {
			if v := row.Magnitudes[m]; v > 0 {
				mags = append(mags, fmt.Sprintf("%s=%s", m, pct(v)))
			}
		}
		fmt.Fprintf(w, "  %-12s %-13s %-9s   %s\n", label, pct(row.NonPeriodic), pct(row.Periodic), strings.Join(mags, " "))
	}
	if periods := a.Periods(dir); len(periods) > 0 {
		fmt.Fprintf(w, "  detected periods: min=%.0fs median=%.0fs max=%.0fs\n",
			stats.Min(periods), stats.Median(periods), stats.Max(periods))
	}
}

// WriteMetadata renders the metadata category distribution (Figure 4) as
// horizontal bars.
func WriteMetadata(w io.Writer, a *Aggregator) {
	single, all := a.MetadataDist()
	fmt.Fprintf(w, "Metadata category distribution (Figure 4)\n")
	order := []category.Category{
		category.MetaHighSpike, category.MetaMultipleSpikes,
		category.MetaHighDensity, category.MetaInsignificantLoad,
	}
	for _, c := range order {
		fmt.Fprintf(w, "  %-28s single %s %s\n", c, pct(single[c]), bar(single[c], 30))
		fmt.Fprintf(w, "  %-28s all    %s %s\n", "", pct(all[c]), bar(all[c], 30))
	}
}

func bar(v float64, width int) string {
	n := int(v * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// WriteJaccard renders the Jaccard heatmap (Figure 5) restricted to
// categories with at least one member and pairs above the threshold.
func WriteJaccard(w io.Writer, a *Aggregator, threshold float64) {
	co := a.Co()
	// Keep only populated labels so the matrix stays readable.
	var labels []category.Category
	for _, l := range category.All() {
		if co.Count(l) > 0 {
			labels = append(labels, l)
		}
	}
	fmt.Fprintf(w, "Jaccard index matrix (Figure 5, values >= %s)\n", pct(threshold))
	pairs := co.TopPairs(threshold)
	if len(pairs) == 0 {
		fmt.Fprintf(w, "  (no pairs above threshold)\n")
		return
	}
	for _, p := range pairs {
		fmt.Fprintf(w, "  %-34s x %-34s %s\n", p.A, p.B, pct(p.Jaccard))
	}
	_ = labels
}

// WriteHeatmap renders the full matrix as a compact grid with single-digit
// deciles ("." = <5%, 1-9 = deciles, "X" >= 95%) over the populated
// categories.
func WriteHeatmap(w io.Writer, a *Aggregator, minRate float64) {
	co := a.Co()
	var labels []category.Category
	for _, l := range category.All() {
		if co.Rate(l) >= minRate {
			labels = append(labels, l)
		}
	}
	fmt.Fprintf(w, "Jaccard heatmap grid (%d categories with rate >= %s)\n", len(labels), pct(minRate))
	for i, li := range labels {
		fmt.Fprintf(w, "  %2d %-34s ", i, li)
		for _, lj := range labels {
			fmt.Fprint(w, cell(co.Jaccard(li, lj)))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "     %-34s ", "(columns in row order)")
	for i := range labels {
		fmt.Fprint(w, i%10)
	}
	fmt.Fprintln(w)
}

func cell(v float64) string {
	switch {
	case v >= 0.95:
		return "X"
	case v < 0.05:
		return "."
	default:
		return fmt.Sprintf("%d", int(v*10))
	}
}

// WriteCorrelations prints the Section IV-D correlation statements.
func WriteCorrelations(w io.Writer, c Correlations) {
	fmt.Fprintf(w, "Noteworthy correlations (Section IV-D)\n")
	fmt.Fprintf(w, "  P(write insignificant | read insignificant) = %s  (paper: 95%%)\n", pct(c.InsigReadAlsoInsigWrite))
	fmt.Fprintf(w, "  P(write on end | read on start)              = %s  (paper: 66%%)\n", pct(c.ReadStartWritesEnd))
	fmt.Fprintf(w, "  P(low busy time | periodic write)            = %s  (paper: 96%%)\n", pct(c.PeriodicWriteLowBusy))
	fmt.Fprintf(w, "  P(read start / write end | metadata dense)   = %s\n", pct(c.MetaDenseReadStartOrWriteEnd))
}

// WriteResult renders one trace's categorization in a human-readable
// "explain" form (the Figure 2 walkthrough).
func WriteResult(w io.Writer, res *core.Result) {
	fmt.Fprintf(w, "job %d  app=%s user=%s nprocs=%d runtime=%.0fs\n", res.JobID, res.App, res.User, res.NProcs, res.Runtime)
	fmt.Fprintf(w, "  categories: %s\n", strings.Join(res.Labels, ", "))
	writeDir := func(name string, d core.DirectionReport) {
		fmt.Fprintf(w, "  %s: %d ops -> %d merged, %d bytes, busy %.1fs, temporality=%s\n",
			name, d.RawOps, d.MergedOps, d.TotalBytes, d.BusyTime, d.TemporalS)
		if len(d.Chunks) > 0 {
			fmt.Fprintf(w, "    chunk volumes:")
			for _, c := range d.Chunks {
				fmt.Fprintf(w, " %.0f", c)
			}
			fmt.Fprintln(w)
		}
		for _, g := range d.Groups {
			fmt.Fprintf(w, "    periodic group: %d occurrences, period %.1fs (%s), %.0f bytes/op, busy ratio %.2f\n",
				g.Count, g.Period, g.Magnitude, g.MeanBytes, g.BusyRatio)
		}
	}
	writeDir("read", res.Read)
	writeDir("write", res.Write)
	fmt.Fprintf(w, "  metadata: %d ops, peak %.0f req/s, mean %.1f req/s, %d spikes (%d high)\n",
		res.Meta.TotalOps, res.Meta.PeakRate, res.Meta.MeanRate, res.Meta.SpikeCount, res.Meta.HighSpikes)
}
