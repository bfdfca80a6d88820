package darshan_test

// Benchmarks of the zero-copy ingest hot path. The pinned sub-benchmarks
// (BenchmarkIngest/decode_warm, /decode_gzip, /inspect_gzip,
// /inspect_prelude, /decode_file, /inspect_file, /encode, /store_append)
// are defined once in internal/benchsuite and shared with `mosaic-bench
// -bench-json`, which records them into the committed BENCH_ingest.json
// baseline that CI's regression gate compares against. The gzip ones
// read a version-3 file, the _file ones what WriteBinary writes. /inflate
// runs the gzip kernel alone and is not pinned: only this package can
// reach it.
//
// Run locally with:
//
//	go test ./internal/darshan -bench BenchmarkIngest -run ^$

import (
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/benchsuite"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

func BenchmarkIngest(b *testing.B) {
	b.Run("decode_warm", benchsuite.IngestDecodeWarm)
	b.Run("decode_gzip", benchsuite.IngestDecodeGzip)
	b.Run("inspect_gzip", benchsuite.IngestInspectGzip)
	b.Run("inspect_prelude", benchsuite.IngestInspectPrelude)
	b.Run("decode_file", benchsuite.IngestDecodeFile)
	b.Run("inspect_file", benchsuite.IngestInspectFile)
	b.Run("inflate", benchsuite.IngestInflate(darshan.NewInflate(), darshan.BodyOffset))
	b.Run("encode", benchsuite.IngestEncode)
	b.Run("store_append", benchsuite.IngestStoreAppend)
}
