package index_test

import (
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/benchsuite"
)

// These expose the pinned query-engine benchmarks (BENCH_query.json) to
// plain `go test -bench`. The bodies live in internal/benchsuite so
// `mosaic-bench -bench-json` runs the identical code; this file is in
// the external test package because benchsuite imports index.

// BenchmarkQuery is the posting-list engine over the 1M-trace corpus.
func BenchmarkQuery(b *testing.B) {
	b.Run("point_1m", benchsuite.QueryBench("point", false))
	b.Run("and_heavy_1m", benchsuite.QueryBench("and_heavy", false))
	b.Run("not_heavy_1m", benchsuite.QueryBench("not_heavy", false))
	b.Run("and_heavy_page_1m", benchsuite.QueryPageBench("and_heavy"))
	b.Run("not_heavy_page_1m", benchsuite.QueryPageBench("not_heavy"))
	b.Run("stats_1m", benchsuite.QueryBench("stats", false))
	b.Run("rebuild_20k", benchsuite.QueryRebuild(false))
}

// BenchmarkQueryOracle is the same workload on the map-based reference
// engine — the pre-rewrite evaluation strategy the ≥10× query and ≥3×
// rebuild contracts are measured against.
func BenchmarkQueryOracle(b *testing.B) {
	b.Run("point_1m", benchsuite.QueryBench("point", true))
	b.Run("and_heavy_1m", benchsuite.QueryBench("and_heavy", true))
	b.Run("not_heavy_1m", benchsuite.QueryBench("not_heavy", true))
	b.Run("stats_1m", benchsuite.QueryBench("stats", true))
	b.Run("rebuild_20k", benchsuite.QueryRebuild(true))
}

// BenchmarkMergeSorted is the scatter-gather reduce across k per-peer
// lists: two-pointer below the loser-tree cutover, tree above it.
func BenchmarkMergeSorted(b *testing.B) {
	b.Run("k2", benchsuite.QueryMergeSorted(2))
	b.Run("k8", benchsuite.QueryMergeSorted(8))
	b.Run("k32", benchsuite.QueryMergeSorted(32))
}
