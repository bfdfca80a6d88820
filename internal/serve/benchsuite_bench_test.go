package serve_test

import (
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/benchsuite"
)

// BenchmarkServe exposes the pinned serve benchmarks (the tracing and
// observability overhead budget pairs, the fresh canonical POST's
// allocation budget, the ten-thousand-ID query answer, the two result
// reads and the explanation read in BENCH_serve.json) to plain
// `go test -bench`. The bodies live in internal/benchsuite so
// `mosaic-bench -bench-json` runs the identical code; this file is in
// the external test package because benchsuite imports serve.
func BenchmarkServe(b *testing.B) {
	b.Run("ingest_warm_untraced", benchsuite.ServeIngestWarm(false))
	b.Run("ingest_warm_traced", benchsuite.ServeIngestWarm(true))
	b.Run("ingest_warm_unobserved", benchsuite.ServeIngestObserved(false))
	b.Run("ingest_warm_observed", benchsuite.ServeIngestObserved(true))
	b.Run("ingest_fresh_canonical", benchsuite.ServeIngestFresh)
	b.Run("query_or_page", benchsuite.ServeQueryOrPage)
	b.Run("result_hot", benchsuite.ServeResult(true))
	b.Run("result_cold", benchsuite.ServeResult(false))
	b.Run("explain_get", benchsuite.ServeExplain)
}

// BenchmarkStore exposes the pinned result write (BENCH_serve.json).
func BenchmarkStore(b *testing.B) {
	b.Run("put_result", benchsuite.StorePutResult)
}

// BenchmarkCluster exposes the pinned cluster benchmarks (the n4/n1
// distribution-overhead contract plus the scatter-gather read path in
// BENCH_cluster.json).
func BenchmarkCluster(b *testing.B) {
	b.Run("ingest_n1", benchsuite.ClusterIngest(1, 1))
	b.Run("ingest_n4_rf1", benchsuite.ClusterIngest(4, 1))
	b.Run("ingest_n4_rf2", benchsuite.ClusterIngest(4, 2))
	b.Run("scatter_query_n4", benchsuite.ClusterScatterQuery(4))
	b.Run("scatter_query_page_n4", benchsuite.ClusterScatterQueryPage(20_000))
	// Not pinned: the same query at a tenth of the corpus, to hold the
	// pinned one to O(page) by eye or by benchstat.
	b.Run("scatter_query_page_n4_2k", benchsuite.ClusterScatterQueryPage(2_000))
}
