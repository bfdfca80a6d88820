package explain

import (
	"fmt"
	"io"
)

// Render writes a deterministic human-readable rule trace of the
// explanation: for every axis, the structured statistics followed by
// each rule evaluated with its operands, threshold, outcome and
// near-miss flag. The output is stable for a given explanation (no map
// iteration), which is what the golden-file CI check diffs against.
func Render(w io.Writer, e *Explanation) {
	fmt.Fprintf(w, "explain job=%d app=%s user=%s runtime=%.0fs config=%s margin=%g\n",
		e.JobID, e.App, e.User, e.Runtime, e.Fingerprint, e.Margin)
	fmt.Fprintf(w, "labels:")
	if len(e.Labels) == 0 {
		fmt.Fprintf(w, " (none)")
	}
	for _, l := range e.Labels {
		fmt.Fprintf(w, " %s", l)
	}
	fmt.Fprintln(w)
	if e.Read != nil {
		renderDirection(w, e.Read)
	}
	if e.Write != nil {
		renderDirection(w, e.Write)
	}
	if e.Meta != nil {
		renderMetadata(w, e.Meta)
	}
	fmt.Fprintf(w, "evidence: %d entries, %d near-misses\n", e.EvidenceCount(), e.NearMissCount())
}

func renderDirection(w io.Writer, d *Direction) {
	fmt.Fprintf(w, "\n[%s]\n", d.Direction)
	p := d.Preprocess
	dxt := ""
	if p.DXT {
		dxt = " (dxt)"
	}
	fmt.Fprintf(w, "  preprocess%s: %d raw -> %d clipped -> %d concurrent-merged -> %d neighbor-merged ops, %d bytes, busy %.3fs\n",
		dxt, p.RawOps, p.ClippedOps, p.ConcurrentOps, p.MergedOps, p.TotalBytes, p.BusySeconds)
	fmt.Fprintf(w, "  merge gaps: runtime-fraction %.6gs, neighbor-fraction %g\n",
		p.GapRuntimeSeconds, p.NeighborFraction)
	if len(d.Chunks) > 0 {
		fmt.Fprintf(w, "  chunks (cv %.4f):", d.CV)
		for _, c := range d.Chunks {
			fmt.Fprintf(w, " %.0f", c)
		}
		fmt.Fprintln(w)
	}
	if d.Detector != "" {
		fmt.Fprintf(w, "  periodicity: detector=%s bandwidth=%g segments=%d\n", d.Detector, d.Bandwidth, d.SegmentCount)
		for i, c := range d.Clusters {
			fmt.Fprintf(w, "    cluster %d: size=%d period=%.3fs mean_bytes=%.0f centroid=(%.4f,%.4f) spread=(%.4f,%.4f) coverage=%.3f -> %s\n",
				i, c.Size, c.Period, c.MeanBytes,
				c.CentroidDuration, c.CentroidVolume,
				c.SpreadDuration, c.SpreadVolume, c.Coverage, c.Reason)
		}
	}
	renderEvidence(w, d.Evidence)
}

func renderMetadata(w io.Writer, m *Metadata) {
	fmt.Fprintf(w, "\n[metadata]\n")
	fmt.Fprintf(w, "  load: %d ops, peak %.1f req/s, mean %.2f req/s, %d spikes (%d high)\n",
		m.TotalOps, m.PeakRate, m.MeanRate, m.SpikeCount, m.HighSpikes)
	renderEvidence(w, m.Evidence)
}

func renderEvidence(w io.Writer, evs []Evidence) {
	for _, ev := range evs {
		mark := "✗"
		if ev.Outcome == Pass {
			mark = "✓"
		}
		near := ""
		if ev.NearMiss {
			near = "  [near-miss]"
		}
		cat := ""
		if ev.Category != "" {
			cat = " -> " + ev.Category
		}
		detail := ""
		if ev.Detail != "" {
			detail = "  (" + ev.Detail + ")"
		}
		fmt.Fprintf(w, "  %s %-22s %.6g %s %.6g%s%s%s\n",
			mark, ev.Rule, ev.Value, ev.Op, ev.Threshold, cat, near, detail)
	}
}
