package mosaic

import (
	"math/rand"

	"github.com/mosaic-hpc/mosaic/internal/gen"
)

// Synthetic trace generation, re-exported. The generator produces
// Darshan-like traces for the I/O motifs observed in production HPC
// systems (checkpointing, read-on-start, write-on-end, steady streaming,
// metadata storms). It substitutes for the non-redistributable Blue
// Waters corpus in every experiment of this repository and doubles as a
// test fixture factory for downstream users.
type (
	// Archetype is one synthetic application family.
	Archetype = gen.Archetype
	// TraceBuilder assembles a single synthetic trace from I/O phases.
	TraceBuilder = gen.Builder
	// BurstSpec describes one I/O phase for TraceBuilder.Burst.
	BurstSpec = gen.BurstSpec
	// PeriodicSpec describes a checkpoint-style phase train.
	PeriodicSpec = gen.PeriodicSpec
)

// ArchetypeByName looks up one archetype of the default mixture.
func ArchetypeByName(name string) (Archetype, bool) { return gen.ArchetypeByName(name) }

// NewTraceBuilder starts one synthetic trace.
func NewTraceBuilder(rng *rand.Rand, user, exe string, jobID uint64, ranks int32, runtime float64) *TraceBuilder {
	return gen.NewBuilder(rng, user, exe, jobID, ranks, runtime)
}
