package core

import (
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/cluster"
	"github.com/mosaic-hpc/mosaic/internal/interval"
	"github.com/mosaic-hpc/mosaic/internal/segment"
)

// clusterScratchPool hands each categorization worker a reusable bundle of
// clustering buffers. With it, the Mean Shift hot path allocates O(1) per
// trace regardless of segment count: feature embedding, grid index, seed
// trajectories, and mode-merge working sets all live in the scratch.
var clusterScratchPool = sync.Pool{New: func() any { return cluster.NewScratch() }}

// periodicityTrace collects the detector evidence discarded by the plain
// path: the segments and the clustering trace. A nil trace costs a
// pointer check per call site.
type periodicityTrace struct {
	Segs []segment.Segment
	Seg  segment.DetectTrace
}

// meanShiftGroups is step (3)(a), the paper's detector: it segments the
// merged operations of one direction and groups the segments with Mean
// Shift. tr, when non-nil, receives the detection evidence; results are
// identical either way.
func meanShiftGroups(merged []interval.Interval, runtime float64, cfg *Config, tr *periodicityTrace) ([]segment.Group, error) {
	segs := segment.Split(merged, runtime)
	sc := clusterScratchPool.Get().(*cluster.Scratch)
	defer clusterScratchPool.Put(sc)
	dc := segment.DetectConfig{
		Bandwidth:    cfg.MeanShiftBandwidth,
		MinGroupSize: cfg.MinGroupSize,
		MinCoverage:  cfg.MinGroupCoverage,
		Features: segment.FeatureConfig{
			Runtime:        runtime,
			VolumeLogScale: cfg.VolumeLogScale,
		},
		Scratch: sc,
	}
	if tr != nil {
		tr.Segs = segs
		dc.Trace = &tr.Seg
	}
	return segment.Detect(segs, dc)
}
