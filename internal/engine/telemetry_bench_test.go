package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/gen"
)

// The overhead benchmarks back the <5% telemetry-overhead budget
// documented in DESIGN.md: the same in-memory corpus run with no
// observer vs the full bundle (metrics + spans + slow log).
//
// Jobs are sized like real traces (several phases, dozens of records)
// so the ratio reflects production work per item, not fixed per-item
// observer cost against near-empty jobs.
//
//	go test -bench 'EngineRun' -benchtime 20x ./internal/engine

func benchJobs(n int) []*darshan.Job {
	rng := rand.New(rand.NewSource(17))
	jobs := make([]*darshan.Job, 0, n)
	for i := 0; i < n; i++ {
		b := gen.NewBuilder(rng, fmt.Sprintf("u%d", i%3), fmt.Sprintf("/bin/app%d", i%4), uint64(i+1), 64, 7200)
		for p := 0; p < 8; p++ {
			b.Burst(gen.BurstSpec{
				At:       float64(100 + p*800),
				Duration: 120,
				Bytes:    1 << 30,
				Records:  32,
			})
		}
		jobs = append(jobs, b.Job())
	}
	return jobs
}

func benchmarkEngineRun(b *testing.B, mk func() Observer) {
	jobs := benchJobs(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(context.Background(), Jobs(jobs), Options{
			Workers:  4,
			Observer: mk(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineRunNopObserver(b *testing.B) {
	benchmarkEngineRun(b, func() Observer { return NopObserver{} })
}

func BenchmarkEngineRunFullTelemetry(b *testing.B) {
	benchmarkEngineRun(b, func() Observer {
		return NewTelemetry(TelemetryConfig{Spans: true, SlowK: 10})
	})
}
