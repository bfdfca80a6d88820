package interval_test

import (
	"math/rand"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/interval"
)

// TestMergeInPlaceMatchesOracleOnArchetypes holds the kernel to the old
// copy-per-step chain on the operations of every generator archetype,
// aggregate and DXT view, intact and after each of the generator's
// corruptions. A damaged trace counts while its intervals still meet the
// kernel's contract (no NaN, no inverted span) — most do: the damage is to
// the header, a counter, or a timestamp pushed out of range.
func TestMergeInPlaceMatchesOracleOnArchetypes(t *testing.T) {
	pol := interval.DefaultNeighborPolicy()
	rng := rand.New(rand.NewSource(17))
	archetypes := append(gen.DefaultArchetypes(), gen.DXTCheckpointerArchetype(false), gen.DXTCheckpointerArchetype(true))
	compared := 0
	check := func(t *testing.T, j *darshan.Job) {
		for _, write := range []bool{false, true} {
			for _, dxt := range []bool{false, true} {
				ivs, _ := j.AppendIntervals(nil, write, dxt)
				if !interval.WellFormed(ivs) {
					continue
				}
				interval.CheckAgainstOracle(t, ivs, j.Runtime, pol)
				compared++
			}
		}
	}
	for _, arch := range archetypes {
		t.Run(arch.Name, func(t *testing.T) {
			build := func() *darshan.Job {
				p := arch.Params(rng)
				b := gen.NewBuilder(rng, "u1", arch.Exe, 1, p.Ranks, p.RuntimeBase)
				arch.Build(b, p)
				return b.Job()
			}
			check(t, build())
			for seen := map[int]bool{}; len(seen) < gen.CorruptKinds; {
				j := build()
				seen[gen.Corrupt(j, rng)] = true
				check(t, j)
			}
		})
	}
	if want := 4 * len(archetypes) * 4; compared < want {
		t.Fatalf("only %d direction views met the kernel's contract, want at least %d", compared, want)
	}
}
