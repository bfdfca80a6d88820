package core

import (
	"math"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

// Metadata-impact characterization (Section III-B3c). MOSAIC counts the
// OPEN, CLOSE and SEEK requests attributed to each I/O operation; Darshan
// does not time SEEKs precisely, so they are assumed co-located with the
// OPENs (darshan.Counters.MetaBursts applies that convention). The per-second
// request rate then yields the spike/density categories.

// MetaReport carries the measured metadata quantities alongside the
// assigned categories; they are serialized into the per-trace JSON output.
type MetaReport struct {
	TotalOps   int64   `json:"total_ops"`
	PeakRate   float64 `json:"peak_rate"`   // max requests in any one second
	MeanRate   float64 `json:"mean_rate"`   // requests per second over the execution
	SpikeCount int     `json:"spike_count"` // seconds with at least SpikeRate requests
	HighSpikes int     `json:"high_spikes"` // seconds with at least SpikeHighRate requests
}

// maxRateBins caps the number of one-second histogram bins; beyond this,
// seconds are coalesced. A week-long job stays under it.
const maxRateBins = 1 << 21

// exactFloatSum is the largest total that integer-valued float64 terms
// reach without rounding, in whatever order they are added.
const exactFloatSum = 1 << 53

// classifyMetadata adds the metadata categories of a job to cats and
// returns the measured quantities.
//
// Requests are counted in the paper's fixed one-second bins over
// [0, runtime]: bin int(t) for a request at t, events outside the range
// clamped into the edge bins (their traces passed validation within
// tsSlack). Only bins that saw a request exist, in rates: every rate
// threshold is positive (Config.sane), so an empty second can be neither
// a spike nor the peak and adds nothing to the mean.
func classifyMetadata(j *darshan.Job, cfg *Config, rates *rateTable, cats *category.Set) MetaReport {
	rep := MetaReport{TotalOps: j.TotalMetaOps()}

	// The insignificant threshold: fewer metadata operations than ranks
	// means the job barely touched the metadata server (each rank opening
	// its own file once already costs nprocs OPENs).
	if rep.TotalOps < int64(j.NProcs) {
		cats.Add(category.MetaInsignificantLoad)
		return rep
	}

	n := int(math.Ceil(j.Runtime))
	if n < 1 {
		n = 1
	}
	scale := 1.0
	if n > maxRateBins {
		scale = float64(n) / float64(maxRateBins)
		n = maxRateBins
	}
	rates.reserve(min(n, 2*len(j.Records)))
	var requests int64 // exact while every partial sum is
	for i := range j.Records {
		atOpen, atClose := j.Records[i].C.MetaBursts()
		for _, ev := range [...]darshan.MetaEvent{atOpen, atClose} {
			if ev.Count <= 0 {
				continue
			}
			bin := int(ev.Time / scale)
			if bin < 0 {
				bin = 0
			}
			if bin >= n {
				bin = n - 1
			}
			rates.add(int32(bin), float64(ev.Count))
			if requests += ev.Count; requests < 0 || requests > exactFloatSum {
				requests = exactFloatSum + 1
			}
		}
	}
	// The dense histogram was summed in bin order. Whole request counts
	// below 2^53 add to the same float in any order; coalesced bins hold
	// quotients, which do not.
	if scale != 1 || requests > exactFloatSum {
		rates.sortByBin()
	}
	var total float64
	for _, c := range rates.cells {
		r := c.sum
		if scale != 1 {
			r /= scale // a coalesced bin covers `scale` seconds
		}
		total += r
		if r > rep.PeakRate {
			rep.PeakRate = r
		}
		if r >= cfg.SpikeRate {
			rep.SpikeCount++
		}
		if r >= cfg.SpikeHighRate {
			rep.HighSpikes++
		}
	}
	rates.clear()
	if j.Runtime > 0 {
		rep.MeanRate = total / j.Runtime
	}

	pattern := false
	if rep.HighSpikes >= 1 {
		cats.Add(category.MetaHighSpike)
		pattern = true
	}
	if rep.SpikeCount >= cfg.MultipleSpikes {
		cats.Add(category.MetaMultipleSpikes)
		pattern = true
		if rep.MeanRate >= cfg.DensityRate {
			cats.Add(category.MetaHighDensity)
		}
	}
	if !pattern {
		// Some metadata traffic, but no pattern crossing any threshold:
		// the load is insignificant for the metadata server.
		cats.Add(category.MetaInsignificantLoad)
	}
	return rep
}
