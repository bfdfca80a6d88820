package report

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/interval"
)

// Timeline rendering: the ASCII counterpart of the paper's Figure 2 — raw
// operations, operations after pre-processing, detected periodic groups
// and temporal chunk volumes, drawn over a common time axis.

// TimelineConfig controls the rendering.
type TimelineConfig struct {
	Width int // columns of the time axis (default 72)
}

func (c TimelineConfig) width() int {
	if c.Width < 16 {
		return 72
	}
	return c.Width
}

// track rasterizes intervals onto a width-column strip; glyph marks
// active columns.
func track(ops []interval.Interval, runtime float64, width int, glyph byte) string {
	cells := make([]byte, width)
	for i := range cells {
		cells[i] = '.'
	}
	if runtime <= 0 {
		return string(cells)
	}
	for _, op := range ops {
		lo := int(op.Start / runtime * float64(width))
		hi := int(op.End / runtime * float64(width))
		if hi >= width {
			hi = width - 1
		}
		if lo < 0 {
			lo = 0
		}
		for c := lo; c <= hi && c < width; c++ {
			cells[c] = glyph
		}
	}
	return string(cells)
}

// WriteTimeline renders the processing of one trace as aligned tracks:
// the raw read/write operations, the merged operations, and per-group
// periodic occurrence marks. It re-runs the merging stage on the job so
// the visualization always reflects the given configuration.
func WriteTimeline(w io.Writer, j *darshan.Job, res *core.Result, cfg core.Config) {
	tl := TimelineConfig{}
	width := tl.width()
	rt := j.Runtime
	pol := interval.NeighborPolicy{
		RuntimeFraction:  cfg.MergeRuntimeFraction,
		NeighborFraction: cfg.MergeNeighborFraction,
	}

	fmt.Fprintf(w, "Trace timeline — job %d (%s), runtime %.0fs, %d columns of %.1fs\n",
		j.JobID, j.AppName(), rt, width, rt/float64(width))
	axis := make([]byte, width)
	for i := range axis {
		axis[i] = '-'
	}
	for i := 0; i < width; i += width / 4 {
		axis[i] = '+'
	}
	fmt.Fprintf(w, "  %-22s %s\n", "time axis (quarters)", string(axis))

	reads, _ := j.AppendIntervals(nil, false, !cfg.DisableDXT)
	writes, _ := j.AppendIntervals(nil, true, !cfg.DisableDXT)
	mergedR, _, _ := interval.MergeInPlace(slices.Clone(reads), rt, pol)
	mergedW, _, _ := interval.MergeInPlace(slices.Clone(writes), rt, pol)

	fmt.Fprintf(w, "  %-22s %s\n", "reads (raw)", track(reads, rt, width, 'r'))
	fmt.Fprintf(w, "  %-22s %s\n", "reads (merged)", track(mergedR, rt, width, 'R'))
	fmt.Fprintf(w, "  %-22s %s\n", "writes (raw)", track(writes, rt, width, 'w'))
	fmt.Fprintf(w, "  %-22s %s\n", "writes (merged)", track(mergedW, rt, width, 'W'))

	if res != nil {
		writeGroupTracks(w, "write periodic", res.Write, mergedW, rt, width)
		writeGroupTracks(w, "read periodic", res.Read, mergedR, rt, width)
		writeChunkBars(w, "read chunks", res.Read.Chunks)
		writeChunkBars(w, "write chunks", res.Write.Chunks)
	}
}

func writeGroupTracks(w io.Writer, label string, rep core.DirectionReport, merged []interval.Interval, rt float64, width int) {
	for gi, g := range rep.Groups {
		var ops []interval.Interval
		for _, si := range g.Segments {
			if si >= 0 && si < len(merged) {
				ops = append(ops, merged[si])
			}
		}
		name := fmt.Sprintf("%s #%d (%.0fs)", label, gi+1, g.Period)
		if len(ops) == 0 {
			// Frequency-detector groups carry no segment indices; mark
			// the expected cadence instead.
			for t := g.Period / 2; t < rt; t += g.Period {
				ops = append(ops, interval.Interval{Start: t, End: t})
			}
		}
		fmt.Fprintf(w, "  %-22s %s\n", name, track(ops, rt, width, 'P'))
	}
}

func writeChunkBars(w io.Writer, label string, chunks []float64) {
	if len(chunks) == 0 {
		return
	}
	var max float64
	for _, c := range chunks {
		if c > max {
			max = c
		}
	}
	parts := make([]string, len(chunks))
	for i, c := range chunks {
		const barW = 12
		n := 0
		if max > 0 {
			n = int(c / max * barW)
		}
		parts[i] = fmt.Sprintf("%s%s", strings.Repeat("#", n), strings.Repeat(".", barW-n))
	}
	fmt.Fprintf(w, "  %-22s %s\n", label, strings.Join(parts, "|"))
}
