package core

import (
	"fmt"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/interval"
	"github.com/mosaic-hpc/mosaic/internal/segment"
)

// DirectionReport describes the detected behaviour of one I/O direction.
type DirectionReport struct {
	TotalBytes int64                 `json:"total_bytes"`
	RawOps     int                   `json:"raw_ops"`    // operations before merging
	MergedOps  int                   `json:"merged_ops"` // operations after both merges
	Chunks     []float64             `json:"chunks"`     // per-chunk volumes
	Temporal   category.TemporalKind `json:"-"`
	TemporalS  string                `json:"temporality"`
	Groups     []segment.Group       `json:"periodic_groups,omitempty"`
	BusyTime   float64               `json:"busy_time"` // cumulative merged I/O time, seconds
	// Spatial is the offset-sequence classification (sequential /
	// strided / random), available only on DXT-traced records; an
	// extension beyond the paper's category set.
	Spatial SpatialPattern `json:"spatial,omitempty"`
}

// Result is the categorization of one trace: the assigned category set
// plus the computed values MOSAIC stores in its JSON output (step 4 of the
// workflow).
type Result struct {
	JobID      uint64            `json:"job_id"`
	App        string            `json:"app"`
	User       string            `json:"user"`
	NProcs     int32             `json:"nprocs"`
	Runtime    float64           `json:"runtime"`
	Categories category.Set      `json:"-"`
	Labels     []string          `json:"categories"`
	Read       DirectionReport   `json:"read"`
	Write      DirectionReport   `json:"write"`
	Meta       MetaReport        `json:"metadata"`
	Truth      map[string]string `json:"truth,omitempty"` // generator annotations, if present
}

// Categorize runs the complete MOSAIC detection chain on a single
// validated trace: merging (2a, 2b), periodicity (3a), temporality (3b)
// and metadata analysis (3c). The job must have passed darshan.Validate;
// Categorize itself does not re-validate.
func Categorize(j *darshan.Job, cfg Config) (*Result, error) {
	return categorize(j, cfg, nil)
}

// categorize is the shared implementation behind Categorize (ex == nil,
// the hot path: no provenance is collected, the only cost is pointer
// checks) and CategorizeExplained (ex != nil).
func categorize(j *darshan.Job, cfg Config, ex *explainState) (*Result, error) {
	c := cfg.sane()
	res := &Result{
		JobID:   j.JobID,
		App:     j.AppName(),
		User:    j.User,
		NProcs:  j.NProcs,
		Runtime: j.Runtime,
	}
	if len(j.Metadata) > 0 {
		res.Truth = j.Metadata
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// MOSAIC handles read and write operations independently. DXT
	// extended segments, when traced and not disabled, replace the
	// aggregate open-to-close windows and expose intra-record structure.
	var rdxt, wdxt bool
	sc.reads, rdxt = j.AppendIntervals(sc.reads[:0], false, !c.DisableDXT)
	sc.writes, wdxt = j.AppendIntervals(sc.writes[:0], true, !c.DisableDXT)
	dxt := rdxt || wdxt
	if dxt {
		res.Read.Spatial = spatialForJob(j, false)
		res.Write.Spatial = spatialForJob(j, true)
	}
	if err := categorizeDirection(j, category.DirRead, sc.reads, &c, res, &res.Read, ex.direction(category.DirRead, dxt)); err != nil {
		return nil, fmt.Errorf("core: read direction of job %d: %w", j.JobID, err)
	}
	if err := categorizeDirection(j, category.DirWrite, sc.writes, &c, res, &res.Write, ex.direction(category.DirWrite, dxt)); err != nil {
		return nil, fmt.Errorf("core: write direction of job %d: %w", j.JobID, err)
	}

	res.Meta = classifyMetadata(j, &c, &sc.rates, &res.Categories)

	res.Labels = res.Categories.Strings()
	if ex != nil {
		ex.meta(j, res, &c)
		ex.finish(res)
	}
	return res, nil
}

// categorizeDirection characterizes one direction. raw is scratch memory:
// it is merged in place and must not outlive the call.
func categorizeDirection(j *darshan.Job, dir category.Direction, raw []interval.Interval, cfg *Config, res *Result, rep *DirectionReport, dx *dirExplain) error {
	rep.RawOps = len(raw)
	rep.Temporal = category.Insignificant

	merged, clipped, concurrent := interval.MergeInPlace(raw, j.Runtime, cfg.neighborPolicy())
	if dx != nil {
		// The funnel raw → clipped → concurrent → neighbor.
		dx.preprocess(rep.RawOps, clipped, concurrent, j.Runtime, cfg)
	}
	rep.MergedOps = len(merged)
	rep.TotalBytes = interval.TotalBytes(merged)
	rep.BusyTime = interval.BusyTime(merged)

	// Temporality (3b).
	rep.Chunks = Chunks(merged, j.Runtime, cfg.ChunkCount)
	var ttr *temporalTrace
	if dx != nil {
		ttr = &temporalTrace{}
	}
	rep.Temporal = classifyTemporalityTraced(rep.Chunks, rep.TotalBytes, cfg, ttr)
	rep.TemporalS = rep.Temporal.String()
	res.Categories.Add(category.Temporal(dir, rep.Temporal))
	if dx != nil {
		dx.temporality(rep, ttr, cfg)
	}

	// Periodicity (3a) — only significant directions are characterized.
	if rep.Temporal == category.Insignificant {
		return nil
	}
	var ptr *periodicityTrace
	if dx != nil {
		ptr = &periodicityTrace{}
	}
	groups, err := meanShiftGroups(merged, j.Runtime, cfg, ptr)
	if err != nil {
		return err
	}
	rep.Groups = groups
	res.Categories |= segment.Categories(dir, groups)
	if dx != nil {
		dx.periodicity(rep, ptr, cfg)
	}
	return nil
}

// Significant reports whether the direction crossed the significance
// threshold (i.e. was characterized at all).
func (r *DirectionReport) Significant() bool {
	return r.Temporal != category.Insignificant
}

// Periodic reports whether at least one periodic group was detected on the
// direction.
func (r *DirectionReport) Periodic() bool { return len(r.Groups) > 0 }

// DominantPeriod returns the period of the largest group (by occurrence
// count), or 0 when the direction is not periodic.
func (r *DirectionReport) DominantPeriod() float64 {
	best, bestCount := 0.0, 0
	for _, g := range r.Groups {
		if g.Count > bestCount {
			best, bestCount = g.Period, g.Count
		}
	}
	return best
}
