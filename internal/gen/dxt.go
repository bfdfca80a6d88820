package gen

import (
	"math/rand"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

// DXT-enabled generation: applications that keep their files open for the
// whole run while doing periodic I/O inside. With aggregate-only tracing
// (Blue Waters) such a trace collapses to one steady record — the paper's
// Section IV-A caveat; with DXT the per-operation segments survive and
// MOSAIC can recover the periodicity. The dxt experiment measures both
// sides.

// SteadyHiddenPeriodic emits, per participating record, a single
// whole-run file record whose aggregate counters span the execution,
// optionally annotated with the true per-checkpoint DXT events.
func (b *Builder) SteadyHiddenPeriodic(write bool, period, phaseFrac float64, bytesPer int64, records int, withDXT bool) int {
	rt := b.job.Runtime
	if period <= 0 || period >= rt || records <= 0 {
		return 0
	}
	if phaseFrac <= 0 {
		phaseFrac = 0.05
	}
	// Plan the checkpoint times once so every record shares them.
	var phases []float64
	for at := period * 0.5; at+period*phaseFrac < rt; at += period {
		phases = append(phases, at)
	}
	if len(phases) < 2 {
		return 0
	}
	perRecBytes := bytesPer / int64(records)
	phaseDur := period * phaseFrac

	first := phases[0]
	last := phases[len(phases)-1] + phaseDur
	for r := 0; r < records; r++ {
		path := b.nextPath("stream")
		rec := darshan.FileRecord{
			Module: darshan.ModPOSIX,
			Rank:   int32(r % int(b.job.NProcs)),
			C: darshan.Counters{
				Opens: 1, Closes: 1, Seeks: 1,
				OpenStart:  b.clampT(first - 1),
				OpenEnd:    b.clampT(first - 0.5),
				CloseStart: b.clampT(last + 0.5),
				CloseEnd:   b.clampT(last + 1),
			},
		}
		total := perRecBytes * int64(len(phases))
		if write {
			rec.C.Writes = int64(len(phases))
			rec.C.BytesWritten = total
			rec.C.WriteStart = first
			rec.C.WriteEnd = last
		} else {
			rec.C.Reads = int64(len(phases))
			rec.C.BytesRead = total
			rec.C.ReadStart = first
			rec.C.ReadEnd = last
		}
		if withDXT {
			events := make([]darshan.DXTEvent, 0, len(phases))
			var offset int64
			for _, at := range phases {
				jitter := (b.rng.Float64()*2 - 1) * 0.02 * period
				start := b.clampT(at + jitter)
				events = append(events, darshan.DXTEvent{
					Start:  start,
					End:    b.clampT(start + phaseDur),
					Offset: offset,
					Length: jitterBytes(b.rng, perRecBytes, 0.05),
				})
				offset += perRecBytes
			}
			if write {
				rec.DXTWrites = events
			} else {
				rec.DXTReads = events
			}
		}
		b.addRecord(rec, path)
	}
	return len(phases)
}

// DXTCheckpointerArchetype models a simulation that checkpoints into files
// held open for the entire run. Variant selects DXT availability: with
// p.Variant == 1 the trace carries DXT events (periodicity recoverable),
// with 0 it is aggregate-only (collapses to steady). Not part of the
// default Blue-Waters-shaped mixture — the dxt experiment instantiates it
// explicitly.
func DXTCheckpointerArchetype(withDXT bool) Archetype {
	name := "dxt-checkpointer-aggregate"
	if withDXT {
		name = "dxt-checkpointer-dxt"
	}
	return Archetype{
		Name: name, Exe: "/apps/bin/gromacs", AppShare: 0, MeanRuns: 1,
		Params: func(rng *rand.Rand) AppParams {
			p := AppParams{
				Ranks:    64,
				Records:  8 + rng.Intn(8),
				Bytes:    significantBytes(rng, 8*gb),
				Period:   uniformF(rng, 120, 900),
				BusyFrac: uniformF(rng, 0.05, 0.15),
			}
			p.RuntimeBase = p.Period * uniformF(rng, 12, 25)
			if withDXT {
				p.Variant = 1
			}
			return p
		},
		Build: func(b *Builder, p AppParams) {
			b.SteadyHiddenPeriodic(true, p.Period, p.BusyFrac, p.Bytes, p.Records, p.Variant == 1)
			b.Label(category.Temporal(category.DirRead, category.Insignificant))
			if p.Variant == 1 {
				// With DXT the true structure is visible.
				b.Label(category.Temporal(category.DirWrite, category.Steady))
				b.Label(category.Periodic(category.DirWrite))
				b.Label(category.PeriodicMagnitude(category.DirWrite, category.MagnitudeOf(p.Period)))
				b.Label(category.PeriodicBusy(category.DirWrite, p.BusyFrac >= 0.25))
			} else {
				// Aggregate-only: one open-to-close window per record.
				b.Label(category.Temporal(category.DirWrite, category.Steady))
			}
			b.Annotate(TruthPeriodKey, formatSeconds(p.Period))
			b.Label(category.MetaInsignificantLoad)
		},
	}
}
