package core

import (
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

// metaJob builds a job whose metadata events are fully controlled: each
// entry of bursts adds one record producing `count` requests at time `at`.
func metaJob(nprocs int32, runtime float64, bursts []darshan.MetaEvent) *darshan.Job {
	j := &darshan.Job{NProcs: nprocs, Runtime: runtime, Start: 0, End: int64(runtime)}
	for _, b := range bursts {
		j.Records = append(j.Records, darshan.FileRecord{
			Module: darshan.ModPOSIX,
			Path:   "/m",
			C: darshan.Counters{
				Opens:     b.Count, // all requests attributed to the open timestamp
				OpenStart: b.Time,
				OpenEnd:   b.Time,
			},
		})
	}
	return j
}

// classifyMeta classifies under the default config, on the way holding
// the answer to the dense-histogram oracle.
func classifyMeta(t *testing.T, j *darshan.Job) (category.Set, MetaReport) {
	t.Helper()
	cfg := DefaultConfig()
	return checkMetaAgainstOracle(t, j, &cfg, new(rateTable))
}

func TestMetadataInsignificantBelowRanks(t *testing.T) {
	// 10 requests < 64 ranks: insignificant by the paper's rule.
	j := metaJob(64, 100, []darshan.MetaEvent{{Time: 5, Count: 10}})
	cats, rep := classifyMeta(t, j)
	if !cats.Has(category.MetaInsignificantLoad) || cats.Len() != 1 {
		t.Fatalf("cats = %v", cats)
	}
	if rep.TotalOps != 10 {
		t.Fatalf("total = %d", rep.TotalOps)
	}
}

func TestMetadataHighSpike(t *testing.T) {
	// 300 requests in one second >= 250: high spike.
	j := metaJob(64, 1000, []darshan.MetaEvent{{Time: 500, Count: 300}})
	cats, rep := classifyMeta(t, j)
	if !cats.Has(category.MetaHighSpike) {
		t.Fatalf("cats = %v", cats)
	}
	if cats.Has(category.MetaMultipleSpikes) || cats.Has(category.MetaHighDensity) {
		t.Fatalf("extra categories: %v", cats)
	}
	if rep.PeakRate != 300 || rep.HighSpikes != 1 {
		t.Fatalf("rep = %+v", rep)
	}
}

func TestMetadataSpikeThresholdBoundary(t *testing.T) {
	// 249 requests: below the high-spike threshold.
	j := metaJob(64, 1000, []darshan.MetaEvent{{Time: 500, Count: 249}})
	cats, _ := classifyMeta(t, j)
	if cats.Has(category.MetaHighSpike) {
		t.Fatalf("249 req/s flagged high spike: %v", cats)
	}
	// Exactly 250: flagged.
	j = metaJob(64, 1000, []darshan.MetaEvent{{Time: 500, Count: 250}})
	cats, _ = classifyMeta(t, j)
	if !cats.Has(category.MetaHighSpike) {
		t.Fatalf("250 req/s not flagged: %v", cats)
	}
}

func TestMetadataMultipleSpikes(t *testing.T) {
	// 5 spikes of 60 requests: multiple_spikes but not high spike and,
	// with a long runtime, not high density.
	var bursts []darshan.MetaEvent
	for i := 0; i < 5; i++ {
		bursts = append(bursts, darshan.MetaEvent{Time: float64(100 + i*100), Count: 60})
	}
	j := metaJob(64, 1000, bursts)
	cats, rep := classifyMeta(t, j)
	if !cats.Has(category.MetaMultipleSpikes) {
		t.Fatalf("cats = %v", cats)
	}
	if cats.Has(category.MetaHighSpike) || cats.Has(category.MetaHighDensity) {
		t.Fatalf("extra categories: %v (report %+v)", cats, rep)
	}
	if rep.SpikeCount != 5 {
		t.Fatalf("spikes = %d", rep.SpikeCount)
	}
}

func TestMetadataFourSpikesNotMultiple(t *testing.T) {
	var bursts []darshan.MetaEvent
	for i := 0; i < 4; i++ {
		bursts = append(bursts, darshan.MetaEvent{Time: float64(100 + i*100), Count: 60})
	}
	cats, _ := classifyMeta(t, metaJob(64, 1000, bursts))
	if cats.Has(category.MetaMultipleSpikes) {
		t.Fatalf("4 spikes flagged multiple: %v", cats)
	}
}

func TestMetadataHighDensity(t *testing.T) {
	// 20 bursts of 300 requests over 100s: mean 60 req/s >= 50 and >= 5
	// spikes: high density (plus high spike and multiple spikes).
	var bursts []darshan.MetaEvent
	for i := 0; i < 20; i++ {
		bursts = append(bursts, darshan.MetaEvent{Time: float64(i * 5), Count: 300})
	}
	j := metaJob(64, 100, bursts)
	cats, rep := classifyMeta(t, j)
	if !cats.HasAll(category.MetaHighDensity, category.MetaHighSpike, category.MetaMultipleSpikes) {
		t.Fatalf("cats = %v", cats)
	}
	if rep.MeanRate < 50 {
		t.Fatalf("mean rate = %g", rep.MeanRate)
	}
}

func TestMetadataDensityNeedsSpikes(t *testing.T) {
	// Sustained 60 req/s with no single second reaching 50... impossible
	// at 1s bins; instead: high mean but only 4 spike seconds and the
	// rest spread thin — must NOT be high density (needs >= 5 spikes).
	bursts := []darshan.MetaEvent{
		{Time: 1, Count: 3000}, {Time: 20, Count: 3000},
		{Time: 40, Count: 3000}, {Time: 60, Count: 3000},
	}
	j := metaJob(64, 100, bursts)
	cats, rep := classifyMeta(t, j)
	if cats.Has(category.MetaHighDensity) {
		t.Fatalf("density without enough spikes: %v (%+v)", cats, rep)
	}
	if !cats.Has(category.MetaHighSpike) {
		t.Fatalf("cats = %v", cats)
	}
}

func TestMetadataModerateLoadFallsBack(t *testing.T) {
	// More ops than ranks but no threshold crossed: insignificant load.
	j := metaJob(8, 1000, []darshan.MetaEvent{{Time: 10, Count: 20}, {Time: 500, Count: 20}})
	cats, _ := classifyMeta(t, j)
	if !cats.Has(category.MetaInsignificantLoad) || cats.Len() != 1 {
		t.Fatalf("cats = %v", cats)
	}
}

func TestRateHistogramClampsOutOfRange(t *testing.T) {
	// Requests timed before the start or after the end of the run count
	// in the first and last second.
	j := metaJob(8, 100, []darshan.MetaEvent{{Time: -5, Count: 260}, {Time: 0.5, Count: 10}, {Time: 1e9, Count: 300}, {Time: 99.5, Count: 1}})
	_, rep := classifyMeta(t, j)
	if rep.PeakRate != 301 || rep.HighSpikes != 2 || rep.SpikeCount != 2 {
		t.Fatalf("clamping failed: %+v", rep)
	}
}

func TestRateHistogramCoalescesLongRuns(t *testing.T) {
	// A runtime beyond maxRateBins seconds coalesces bins but keeps
	// rates comparable: one burst of N requests within a coalesced bin
	// of k seconds reads as N/k req/s.
	runtime := float64(maxRateBins) * 4
	j := metaJob(1, runtime, []darshan.MetaEvent{{Time: 8, Count: 300}, {Time: 11, Count: 100}, {Time: 12, Count: 1001}})
	_, rep := classifyMeta(t, j)
	if rep.PeakRate != 250.25 || rep.SpikeCount != 2 || rep.HighSpikes != 1 {
		t.Fatalf("coalesced rates: %+v", rep)
	}
}

func TestMetadataZeroRuntime(t *testing.T) {
	j := metaJob(1, 0.5, []darshan.MetaEvent{{Time: 0.1, Count: 300}})
	cats, rep := classifyMeta(t, j)
	if !cats.Has(category.MetaHighSpike) {
		t.Fatalf("sub-second run: %v %+v", cats, rep)
	}
}
