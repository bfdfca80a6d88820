package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// archetypeJob builds one run of a generator archetype.
func archetypeJob(arch gen.Archetype, seed int64) *darshan.Job {
	rng := rand.New(rand.NewSource(seed))
	p := arch.Params(rng)
	b := gen.NewBuilder(rng, "u", arch.Exe, uint64(seed), p.Ranks, p.RuntimeBase)
	arch.Build(b, p)
	return b.Job()
}

// failingExec fails every categorization.
type failingExec struct{}

func (failingExec) Categorize(context.Context, *darshan.Job, core.Config) (*core.Result, error) {
	return nil, errors.New("executor down")
}
func (failingExec) CategorizeExplained(context.Context, *darshan.Job, core.Config, explain.Options) (*core.Result, *explain.Explanation, error) {
	return nil, nil, errors.New("executor down")
}
func (failingExec) Concurrency() int { return 1 }

// TestWorkerDirectPathMatchesEngine is the differential test behind the
// worker's shortcut: categorizeTrace and engine.Run over engine.Jobs of
// the same job must agree on the result, the explanation, the eviction
// reason and the error — for every generator archetype and for every
// corruption kind the funnel knows.
func TestWorkerDirectPathMatchesEngine(t *testing.T) {
	type tc struct {
		name string
		job  *darshan.Job
		exec engine.Executor
		kind darshan.CorruptionKind
	}
	var cases []tc
	for i, arch := range gen.DefaultArchetypes() {
		cases = append(cases, tc{name: "archetype/" + arch.Name, job: archetypeJob(arch, int64(i+1))})
	}
	corruptions := map[darshan.CorruptionKind]func(j *darshan.Job){
		darshan.CorruptBadHeader:     func(j *darshan.Job) { j.Runtime = -1 },
		darshan.CorruptBadTimestamps: func(j *darshan.Job) { j.Records[0].C.WriteStart = math.NaN() },
		darshan.CorruptEarlyDealloc:  func(j *darshan.Job) { j.Records[0].C.CloseStart, j.Records[0].C.CloseEnd = 50, 51 },
		darshan.CorruptAfterEnd:      func(j *darshan.Job) { j.Records[0].C.WriteEnd, j.Records[0].C.CloseEnd = 500, 501 },
		darshan.CorruptNegativeCount: func(j *darshan.Job) { j.Records[0].C.BytesRead = -1 },
		darshan.CorruptInverted:      func(j *darshan.Job) { j.Records[0].C.WriteEnd = 80 },
		darshan.CorruptBadModule:     func(j *darshan.Job) { j.Records[0].Module = darshan.Module(99) },
	}
	for kind := darshan.CorruptBadHeader; kind <= darshan.CorruptBadModule; kind++ {
		mutate, ok := corruptions[kind]
		if !ok {
			t.Fatalf("no mutation for corruption kind %s", kind)
		}
		j := testJob(900 + int(kind))
		mutate(j)
		var verr *darshan.ValidationError
		if err := darshan.Validate(j); !errors.As(err, &verr) || verr.Kind != kind {
			t.Fatalf("mutation for %s validates as %v", kind, err)
		}
		cases = append(cases, tc{name: "corrupt/" + kind.String(), job: j, kind: kind})
	}
	cases = append(cases, tc{name: "executor error", job: testJob(950), exec: failingExec{}})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, _ := newTestServer(t, Config{
				Workers: 1, NoBackfill: true, Explain: true, DisableAlerts: true, Executor: c.exec,
			})
			defer s.Shutdown(context.Background())
			ctx := context.Background()

			res, expl, evicted, err := s.categorizeTrace(ctx, c.job)
			run, runErr := engine.Run(ctx, engine.Jobs([]*darshan.Job{c.job}), engine.Options{
				Config: s.cfg, Workers: 1, Executor: s.exec,
				Explain: true, ExplainOptions: s.exOpts,
			})
			if (err == nil) != (runErr == nil) || (err != nil && err.Error() != runErr.Error()) {
				t.Fatalf("direct err = %v, engine err = %v", err, runErr)
			}
			if err != nil {
				return
			}
			wantEvicted := ""
			for reason := range run.Funnel.ByReason {
				wantEvicted = reason
			}
			if evicted != wantEvicted {
				t.Fatalf("direct eviction reason %q, engine %q", evicted, wantEvicted)
			}
			if c.kind != darshan.CorruptNone && evicted != c.kind.String() {
				t.Fatalf("evicted as %q, want %q", evicted, c.kind)
			}
			if evicted != "" {
				if res != nil || expl != nil || len(run.Apps) != 0 {
					t.Fatalf("evicted trace produced output: direct %v/%v, engine %d apps", res, expl, len(run.Apps))
				}
				return
			}
			if len(run.Apps) != 1 {
				t.Fatalf("engine produced %d apps, want 1", len(run.Apps))
			}
			sameJSON(t, "result", res, run.Apps[0].Result)
			sameJSON(t, "explanation", expl, run.Apps[0].Explanation)
			if expl == nil {
				t.Fatal("explain-enabled server produced no explanation")
			}
		})
	}
}

func sameJSON(t *testing.T, what string, a, b any) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("%s differs:\n direct %s\n engine %s", what, ja, jb)
	}
}

// entryExec is engine.Local that counts calls to each of the Executor
// contract's two categorization entry points.
type entryExec struct {
	engine.Local
	plain, explained atomic.Int64
}

func (e *entryExec) Categorize(ctx context.Context, j *darshan.Job, cfg core.Config) (*core.Result, error) {
	e.plain.Add(1)
	return e.Local.Categorize(ctx, j, cfg)
}

func (e *entryExec) CategorizeExplained(ctx context.Context, j *darshan.Job, cfg core.Config, opts explain.Options) (*core.Result, *explain.Explanation, error) {
	e.explained.Add(1)
	return e.Local.CategorizeExplained(ctx, j, cfg, opts)
}

// TestWorkerExplainSelectsEntryPoint: Config.Explain alone decides
// which method of any executor the worker calls, and an explain-enabled
// server always gets an explanation back.
func TestWorkerExplainSelectsEntryPoint(t *testing.T) {
	for _, explainOn := range []bool{true, false} {
		name := "plain"
		if explainOn {
			name = "explain"
		}
		t.Run(name, func(t *testing.T) {
			exec := &entryExec{Local: engine.Local{Workers: 1}}
			s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true, DisableAlerts: true, Explain: explainOn, Executor: exec})
			defer s.Shutdown(context.Background())
			res, expl, evicted, err := s.categorizeTrace(context.Background(), testJob(960))
			if err != nil || evicted != "" || res == nil {
				t.Fatalf("res=%v evicted=%q err=%v", res, evicted, err)
			}
			if (expl != nil) != explainOn {
				t.Fatalf("explanation %v with Explain=%v", expl, explainOn)
			}
			wantPlain, wantExplained := int64(1), int64(0)
			if explainOn {
				wantPlain, wantExplained = 0, 1
			}
			if exec.plain.Load() != wantPlain || exec.explained.Load() != wantExplained {
				t.Fatalf("Categorize called %d times, CategorizeExplained %d; want %d and %d",
					exec.plain.Load(), exec.explained.Load(), wantPlain, wantExplained)
			}
		})
	}
}

// TestCategorizeFailuresCounted: a trace that produces no result is
// counted under the reason it failed for — the funnel's eviction, the
// executor's error, the store's refusal — and /metrics carries all three
// series from the start.
func TestCategorizeFailuresCounted(t *testing.T) {
	corrupted := testJob(970)
	corrupted.Runtime = -1
	cases := []struct {
		why   string
		job   *darshan.Job
		exec  engine.Executor
		close bool // close the store first: the outcome cannot be persisted
	}{
		{why: failEvicted, job: corrupted},
		{why: failError, job: testJob(971), exec: failingExec{}},
		{why: failPersist, job: testJob(972), close: true},
	}
	for _, c := range cases {
		t.Run(c.why, func(t *testing.T) {
			s, st := newTestServer(t, Config{Workers: 1, NoBackfill: true, DisableAlerts: true, Executor: c.exec})
			defer s.Shutdown(context.Background())
			if c.close {
				st.Close()
			}
			id := store.TraceID("failing-" + c.why)
			s.process(ingestJob{id: id, job: c.job, reqID: "test", enq: time.Now()})
			if _, failed := s.failureOf(id); !failed {
				t.Fatal("the failure left no detail for the result route")
			}
			var b strings.Builder
			if err := s.Registry().WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			for _, why := range []string{failEvicted, failError, failPersist} {
				n := 0
				if why == c.why {
					n = 1
				}
				want := fmt.Sprintf("mosaic_serve_categorize_failures_total{reason=%q} %d\n", why, n)
				if !strings.Contains(b.String(), want) {
					t.Errorf("/metrics lacks %q:\n%s", want, grepLines(b.String(), "failures"))
				}
			}
		})
	}
}
