// Package benchsuite defines the pinned benchmarks behind MOSAIC's
// performance regression gate. The same functions back two entry points:
// the `go test -bench` targets in internal/cluster and the repo root, and
// `mosaic-bench -bench-json`, which runs them through testing.Benchmark
// and records the results in the committed BENCH_*.json baselines that CI
// compares fresh runs against.
//
// Pinned names are stable identifiers — renaming one silently drops it
// from the regression gate, so don't.
package benchsuite

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"github.com/mosaic-hpc/mosaic"
	"github.com/mosaic-hpc/mosaic/internal/benchio"
	"github.com/mosaic-hpc/mosaic/internal/cluster"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/darshan/mosdtest"
	"github.com/mosaic-hpc/mosaic/internal/experiments"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// Result file names at the repository root.
const (
	MeanShiftFile = "BENCH_meanshift.json"
	PipelineFile  = "BENCH_pipeline.json"
	IngestFile    = "BENCH_ingest.json"
	ServeFile     = "BENCH_serve.json"
	ClusterFile   = "BENCH_cluster.json"
	QueryFile     = "BENCH_query.json"
)

// Files lists every baseline file produced by the pinned targets; the
// bench gate iterates this, so a new baseline file only needs to be
// added here.
func Files() []string {
	return []string{MeanShiftFile, PipelineFile, IngestFile, ServeFile, ClusterFile, QueryFile}
}

// Target is one pinned benchmark: its stable name, the baseline file it
// belongs to, and the benchmark body.
type Target struct {
	Name string // e.g. "BenchmarkMeanShift/n=5k/binned"
	File string // MeanShiftFile or PipelineFile
	Fn   func(b *testing.B)
}

// pointsSeed pins the synthetic clustering workload; the dataset is a
// pure function of n.
const pointsSeed = 42

// Points returns the deterministic clustering workload used by every
// MeanShift benchmark: six Gaussian blobs plus 20% uniform noise in
// [0,1]², the shape of a segment feature space with several interleaved
// periodic operations.
func Points(n int) []cluster.Point {
	rng := rand.New(rand.NewSource(pointsSeed))
	const k = 6
	centers := make([]cluster.Point, k)
	for i := range centers {
		centers[i] = cluster.Point{rng.Float64(), rng.Float64()}
	}
	pts := make([]cluster.Point, n)
	for i := range pts {
		if rng.Float64() < 0.2 {
			pts[i] = cluster.Point{rng.Float64(), rng.Float64()}
			continue
		}
		c := centers[rng.Intn(k)]
		pts[i] = cluster.Point{
			c[0] + rng.NormFloat64()*0.02,
			c[1] + rng.NormFloat64()*0.02,
		}
	}
	return pts
}

// meanShiftBench returns a benchmark body clustering Points(n) with the
// given configuration (bandwidth 0.05, scratch reuse across iterations).
func meanShiftBench(n int, cfg cluster.MeanShiftConfig) func(*testing.B) {
	return func(b *testing.B) {
		pts := Points(n)
		cfg.Bandwidth = 0.05
		cfg.Scratch = cluster.NewScratch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := cluster.MeanShift(pts, cfg)
			if err != nil || len(res.Centers) == 0 {
				b.Fatalf("centers=%d err=%v", len(res.Centers), err)
			}
		}
	}
}

// Size is one pinned input scale.
type Size struct {
	Label string
	N     int
}

// Mode is one pinned MeanShift configuration.
type Mode struct {
	Label string
	Cfg   cluster.MeanShiftConfig
}

// MeanShiftSizes lists the pinned input scales.
func MeanShiftSizes() []Size {
	return []Size{{"1k", 1000}, {"5k", 5000}, {"20k", 20000}}
}

// MeanShiftModes lists the pinned configurations per scale: the one
// production path, the grid-accelerated flat Mean Shift.
func MeanShiftModes(n int) []Mode {
	return []Mode{{"grid", cluster.MeanShiftConfig{}}}
}

// corpusJobs lazily builds the small deduplicated corpus the pipeline
// benchmarks categorize (one representative run per app, 120 apps).
var corpusJobs = sync.OnceValue(func() []*mosaic.Job {
	corpus := gen.Plan(experiments.ScaledProfile(1, 120))
	jobs := make([]*mosaic.Job, 0, len(corpus.Apps))
	for _, app := range corpus.Apps {
		jobs = append(jobs, corpus.GenerateRun(app, 0).Job)
	}
	return jobs
})

// flagshipJob builds the checkpointing trace the single-trace pipeline
// benchmarks categorize (~1 800 write records).
func flagshipJob(b *testing.B) *darshan.Job {
	arch, ok := gen.ArchetypeByName("checkpointer-minute")
	if !ok {
		b.Fatal("checkpointer-minute archetype missing")
	}
	rng := rand.New(rand.NewSource(1))
	p := arch.Params(rng)
	builder := gen.NewBuilder(rng, "u", arch.Exe, 1, p.Ranks, p.RuntimeBase)
	arch.Build(builder, p)
	return builder.Job()
}

// CategorizeSingle measures the full per-trace pipeline on the flagship
// checkpointing trace (pinned as BenchmarkCategorizeSingle).
func CategorizeSingle(b *testing.B) {
	job := flagshipJob(b)
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Categorize(job, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// CategorizeExplainedSingle is CategorizeSingle with decision provenance
// collected — what mosaic-serve runs for every trace (pinned as
// BenchmarkCategorizeExplainedSingle).
func CategorizeExplainedSingle(b *testing.B) {
	job := flagshipJob(b)
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.CategorizeExplained(job, cfg, explain.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// PipelineParallel measures corpus categorization throughput at the given
// worker count (pinned as BenchmarkPipelineParallel/4workers).
func PipelineParallel(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		jobs := corpusJobs()
		cfg := core.DefaultConfig()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mosaic.CategorizeAll(context.Background(), jobs, mosaic.Options{Config: cfg, Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// PipelineDir measures one pass of the paper's own use — a directory of
// .mosd files through the whole engine, two workers — over that many
// traces sampled from a generated corpus with its default corruption rate
// (pinned as BenchmarkPipelineDir/200files). B/op is the figure to
// watch: it is what a pass materializes, and a pass decodes a whole job
// only for the runs that survive deduplication.
func PipelineDir(files int) func(b *testing.B) {
	return func(b *testing.B) {
		dir := b.TempDir()
		for i, r := range gen.Plan(experiments.ScaledProfile(1, 60)).Reservoir(files, 1) {
			if err := darshan.WriteFile(filepath.Join(dir, fmt.Sprintf("t%06d.mosd", i)), r.Job); err != nil {
				b.Fatal(err)
			}
		}
		opt := mosaic.Options{Config: core.DefaultConfig(), Workers: 2}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := mosaic.AnalyzeCorpusContext(context.Background(), dir, opt)
			if err != nil || a.Funnel.Total != files {
				b.Fatalf("funnel %+v, err %v", a, err)
			}
		}
	}
}

// ingestTrace builds the pinned decode/encode workload: a deterministic
// 200-record trace with metadata and DXT segments on the heavy records,
// the shape of a mid-size production Darshan log.
var ingestTrace = sync.OnceValue(func() *darshan.Job {
	rng := rand.New(rand.NewSource(pointsSeed))
	j := &darshan.Job{
		JobID:   987654,
		UID:     1001,
		User:    "benchuser",
		Exe:     "/apps/climate/cam6.exe",
		NProcs:  512,
		Start:   1_700_000_000,
		End:     1_700_003_600,
		Runtime: 3600,
		Metadata: map[string]string{
			"jobid": "987654", "lib_ver": "3.4.4", "host": "h0001",
		},
	}
	mods := []darshan.Module{darshan.ModPOSIX, darshan.ModMPIIO, darshan.ModSTDIO}
	j.Records = make([]darshan.FileRecord, 200)
	for i := range j.Records {
		r := &j.Records[i]
		r.Module = mods[i%len(mods)]
		r.Path = fmt.Sprintf("/scratch/run42/out.%04d.nc", i)
		r.Rank = int32(i % 64)
		r.C = darshan.Counters{
			Opens: int64(1 + i%4), Closes: int64(1 + i%4),
			Reads: int64(rng.Intn(500)), Writes: int64(rng.Intn(2000)),
			BytesRead: int64(rng.Intn(1 << 24)), BytesWritten: int64(rng.Intn(1 << 26)),
			OpenStart: 1, OpenEnd: 2,
			ReadStart: 5, ReadEnd: 120,
			WriteStart: 130, WriteEnd: 3400,
			CloseStart: 3500, CloseEnd: 3590,
		}
		if i%10 == 0 { // every tenth record carries DXT segments
			r.DXTWrites = make([]darshan.DXTEvent, 16)
			for k := range r.DXTWrites {
				r.DXTWrites[k] = darshan.DXTEvent{
					Start: float64(130 + k), End: float64(131 + k),
					Offset: int64(k) << 20, Length: 1 << 20,
				}
			}
		}
	}
	return j
})

// IngestDecodeWarm is the warm single-trace decode hot path: DecodeInto
// reusing one Job's record, DXT and metadata storage across iterations,
// parsing straight from the raw blob (pinned as
// BenchmarkIngest/decode_warm).
func IngestDecodeWarm(b *testing.B) {
	blob, err := darshan.MarshalBinary(ingestTrace())
	if err != nil {
		b.Fatal(err)
	}
	var j darshan.Job
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := darshan.DecodeInto(&j, blob); err != nil {
			b.Fatal(err)
		}
	}
}

// ingestFile is the ingest trace in the .mosd file encoding WriteBinary
// writes (version 4: prelude, compact body).
func ingestFile(b *testing.B) []byte {
	var buf bytes.Buffer
	if err := darshan.WriteBinary(&buf, ingestTrace()); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// ingestGzipFile is the ingest trace in the version-3 file encoding, the
// prelude over a gzip body: no writer in production makes it any more,
// and the gzip benchmarks below keep measuring the read of it.
func ingestGzipFile(b *testing.B) []byte {
	canonical, err := darshan.MarshalBinary(ingestTrace())
	if err != nil {
		b.Fatal(err)
	}
	return mosdtest.V3File(b, ingestFile(b), canonical)
}

// IngestDecodeGzip decodes the version-3 .mosd encoding (gzip body) with
// pooled inflate state (pinned as BenchmarkIngest/decode_gzip).
func IngestDecodeGzip(b *testing.B) { ingestDecode(b, ingestGzipFile(b)) }

// IngestDecodeFile decodes the .mosd encoding WriteBinary writes, the
// compact body read where it lies (pinned as BenchmarkIngest/decode_file).
func IngestDecodeFile(b *testing.B) { ingestDecode(b, ingestFile(b)) }

func ingestDecode(b *testing.B, blob []byte) {
	var j darshan.Job
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := darshan.DecodeInto(&j, blob); err != nil {
			b.Fatal(err)
		}
	}
}

// IngestInspectGzip is the full walk of the blob IngestDecodeGzip
// decodes: inflated and walked for its summary, no job built — what the
// funnel pays for a file without a prelude (pinned as
// BenchmarkIngest/inspect_gzip).
func IngestInspectGzip(b *testing.B) { ingestInspect(b, darshan.WalkBinary, ingestGzipFile(b)) }

// IngestInspectPrelude is the funnel's read of the same blob: both
// checksums verified, the summary taken from the prelude, nothing
// inflated (pinned as BenchmarkIngest/inspect_prelude).
func IngestInspectPrelude(b *testing.B) {
	ingestInspect(b, darshan.InspectBinary, ingestGzipFile(b))
}

// IngestInspectFile is the funnel's read of the blob IngestDecodeFile
// decodes: both checksums verified over the compact body, the summary
// taken from the prelude (pinned as BenchmarkIngest/inspect_file).
func IngestInspectFile(b *testing.B) { ingestInspect(b, darshan.InspectBinary, ingestFile(b)) }

func ingestInspect(b *testing.B, read func([]byte) (darshan.Summary, error), blob []byte) {
	inspect := func() {
		if s, err := read(blob); err != nil || s.Invalid != nil {
			b.Fatal(s.Invalid, err)
		}
	}
	// testing collects before every run, which empties the pools: refill
	// them outside the timer, or the one pooled state reads as a few
	// B/op that depend on b.N, and the gate holds B/op exactly.
	inspect()
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inspect()
	}
}

// IngestInflate measures the .mosd gzip kernel alone on the gzip body of
// the ingest trace's version-3 file, reusing the output arena; MB/s is of
// inflated bytes (BenchmarkIngest/inflate). The kernel and the reader's
// own account of where a file's body starts are unexported, so the
// caller — internal/darshan's own benchmark — passes them in, and
// mosaic-bench, which cannot, does not pin it: decode_gzip less
// decode_warm is the pinned view of the same work.
func IngestInflate(inflate func(dst, src []byte) ([]byte, error), bodyOffset func(file []byte) (int, error)) func(b *testing.B) {
	return func(b *testing.B) {
		file := ingestGzipFile(b)
		off, err := bodyOffset(file)
		if err != nil {
			b.Fatal(err)
		}
		member := file[off:]
		body, err := inflate(nil, member)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if body, err = inflate(body[:0], member); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// IngestEncode is the canonical encode path with a reused destination
// buffer (pinned as BenchmarkIngest/encode).
func IngestEncode(b *testing.B) {
	j := ingestTrace()
	buf, err := darshan.MarshalBinary(j)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = darshan.AppendEncode(buf[:0], j)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// IngestStoreAppend measures the segment-log append path: content
// addressing, framing, CRC and the buffered write, without fsync
// (pinned as BenchmarkIngest/store_append). Distinct content per
// iteration comes from rewriting the JobID bytes in place — offset 8,
// the first body field after the 8-byte header.
func IngestStoreAppend(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	j := &darshan.Job{JobID: 1, NProcs: 8, Runtime: 100,
		Records: []darshan.FileRecord{{Module: darshan.ModPOSIX, Path: "/scratch/x", Rank: -1,
			C: darshan.Counters{Opens: 1, Writes: 10, BytesWritten: 1 << 20}}}}
	blob, err := darshan.MarshalBinary(j)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(blob[8:], uint64(i))
		if _, dup, err := st.PutTraceBytes(blob); err != nil || dup {
			b.Fatalf("dup=%v err=%v", dup, err)
		}
	}
}

// Targets returns every pinned benchmark.
func Targets() []Target {
	var ts []Target
	for _, size := range MeanShiftSizes() {
		for _, mode := range MeanShiftModes(size.N) {
			ts = append(ts, Target{
				Name: fmt.Sprintf("BenchmarkMeanShift/n=%s/%s", size.Label, mode.Label),
				File: MeanShiftFile,
				Fn:   meanShiftBench(size.N, mode.Cfg),
			})
		}
	}
	ts = append(ts,
		Target{Name: "BenchmarkCategorizeSingle", File: PipelineFile, Fn: CategorizeSingle},
		Target{Name: "BenchmarkCategorizeExplainedSingle", File: PipelineFile, Fn: CategorizeExplainedSingle},
		Target{Name: "BenchmarkPipelineParallel/4workers", File: PipelineFile, Fn: PipelineParallel(4)},
		Target{Name: "BenchmarkPipelineDir/200files", File: PipelineFile, Fn: PipelineDir(200)},
		Target{Name: "BenchmarkIngest/decode_warm", File: IngestFile, Fn: IngestDecodeWarm},
		Target{Name: "BenchmarkIngest/decode_gzip", File: IngestFile, Fn: IngestDecodeGzip},
		Target{Name: "BenchmarkIngest/inspect_gzip", File: IngestFile, Fn: IngestInspectGzip},
		Target{Name: "BenchmarkIngest/inspect_prelude", File: IngestFile, Fn: IngestInspectPrelude},
		Target{Name: "BenchmarkIngest/decode_file", File: IngestFile, Fn: IngestDecodeFile},
		Target{Name: "BenchmarkIngest/inspect_file", File: IngestFile, Fn: IngestInspectFile},
		Target{Name: "BenchmarkIngest/encode", File: IngestFile, Fn: IngestEncode},
		Target{Name: "BenchmarkIngest/store_append", File: IngestFile, Fn: IngestStoreAppend},
		Target{Name: "BenchmarkServe/ingest_warm_untraced", File: ServeFile, Fn: ServeIngestWarm(false)},
		Target{Name: "BenchmarkServe/ingest_warm_traced", File: ServeFile, Fn: ServeIngestWarm(true)},
		Target{Name: "BenchmarkServe/ingest_warm_unobserved", File: ServeFile, Fn: ServeIngestObserved(false)},
		Target{Name: "BenchmarkServe/ingest_warm_observed", File: ServeFile, Fn: ServeIngestObserved(true)},
		Target{Name: "BenchmarkServe/ingest_fresh_canonical", File: ServeFile, Fn: ServeIngestFresh},
		Target{Name: "BenchmarkServe/query_or_page", File: ServeFile, Fn: ServeQueryOrPage},
		Target{Name: "BenchmarkServe/result_hot", File: ServeFile, Fn: ServeResult(true)},
		Target{Name: "BenchmarkServe/result_cold", File: ServeFile, Fn: ServeResult(false)},
		Target{Name: "BenchmarkServe/explain_get", File: ServeFile, Fn: ServeExplain},
		Target{Name: "BenchmarkStore/put_result", File: ServeFile, Fn: StorePutResult},
		Target{Name: "BenchmarkCluster/ingest_n1", File: ClusterFile, Fn: ClusterIngest(1, 1)},
		Target{Name: "BenchmarkCluster/ingest_n4_rf1", File: ClusterFile, Fn: ClusterIngest(4, 1)},
		Target{Name: "BenchmarkCluster/ingest_n4_rf2", File: ClusterFile, Fn: ClusterIngest(4, 2)},
		Target{Name: "BenchmarkCluster/scatter_query_n4", File: ClusterFile, Fn: ClusterScatterQuery(4)},
		Target{Name: "BenchmarkCluster/scatter_query_page_n4", File: ClusterFile, Fn: ClusterScatterQueryPage(scatterPageIDsPerNode)},
		Target{Name: "BenchmarkQuery/point_1m", File: QueryFile, Fn: QueryBench("point", false)},
		Target{Name: "BenchmarkQuery/and_heavy_1m", File: QueryFile, Fn: QueryBench("and_heavy", false)},
		Target{Name: "BenchmarkQuery/not_heavy_1m", File: QueryFile, Fn: QueryBench("not_heavy", false)},
		Target{Name: "BenchmarkQuery/and_heavy_page_1m", File: QueryFile, Fn: QueryPageBench("and_heavy")},
		Target{Name: "BenchmarkQuery/not_heavy_page_1m", File: QueryFile, Fn: QueryPageBench("not_heavy")},
		Target{Name: "BenchmarkQuery/stats_1m", File: QueryFile, Fn: QueryBench("stats", false)},
		Target{Name: "BenchmarkQuery/rebuild_20k", File: QueryFile, Fn: QueryRebuild(false)},
		Target{Name: "BenchmarkMergeSorted/k2", File: QueryFile, Fn: QueryMergeSorted(2)},
		Target{Name: "BenchmarkMergeSorted/k8", File: QueryFile, Fn: QueryMergeSorted(8)},
		Target{Name: "BenchmarkMergeSorted/k32", File: QueryFile, Fn: QueryMergeSorted(32)},
	)
	return ts
}

// Run executes every pinned target count times through testing.Benchmark,
// keeping the fastest ns/op per target, and returns the results grouped
// by baseline file name. report, when non-nil, receives one line per
// measurement.
func Run(count int, report func(string)) map[string]benchio.File {
	if count < 1 {
		count = 1
	}
	files := make(map[string]benchio.File)
	for _, t := range Targets() {
		var best benchio.Entry
		for c := 0; c < count; c++ {
			r := testing.Benchmark(t.Fn)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if c == 0 || ns < best.NsPerOp {
				best = benchio.Entry{
					Name:        t.Name,
					NsPerOp:     ns,
					BytesPerOp:  r.AllocedBytesPerOp(),
					AllocsPerOp: r.AllocsPerOp(),
					Iterations:  r.N,
				}
			}
		}
		if report != nil {
			report(fmt.Sprintf("%-44s %14.0f ns/op %8d B/op %6d allocs/op",
				t.Name, best.NsPerOp, best.BytesPerOp, best.AllocsPerOp))
		}
		f := files[t.File]
		f.Go = runtime.Version()
		f.OS = runtime.GOOS
		f.Arch = runtime.GOARCH
		f.Entries = append(f.Entries, best)
		files[t.File] = f
	}
	return files
}
