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

// storeJob puts j's canonical encoding into s's store, as the write path
// does, and returns its ID: what a queued categorization reads back.
func storeJob(t *testing.T, s *Server, j *darshan.Job) store.TraceID {
	t.Helper()
	id, _, err := s.st.PutTrace(j)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestWorkerDirectPathMatchesEngine is the differential test behind the
// worker's shortcut: categorizeTrace over the stored job and engine.Run
// over engine.Jobs of the job itself must agree on the result, the
// explanation, the eviction reason and the error — for every generator
// archetype and for every corruption kind the funnel knows. One reader
// serves every case, as one worker serves every trace.
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

	var reader traceReader
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, _ := newTestServer(t, Config{
				Workers: 1, NoBackfill: true, Executor: c.exec,
			})
			defer s.Shutdown(context.Background())
			ctx := context.Background()

			res, expl, evicted, err := s.categorizeTrace(ctx, &reader, storeJob(t, s, c.job), true)
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
				t.Fatal("an explained categorization produced no explanation")
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

// TestWorkerExplainSelectsEntryPoint: categorizeTrace's explained
// argument alone decides which method of any executor it calls — the
// worker's plain categorization, GET /v1/explain's explained one — and an
// explained call always gets an explanation back.
func TestWorkerExplainSelectsEntryPoint(t *testing.T) {
	for _, explained := range []bool{true, false} {
		name := "plain"
		if explained {
			name = "explain"
		}
		t.Run(name, func(t *testing.T) {
			exec := &entryExec{Local: engine.Local{Workers: 1}}
			s, _ := newTestServer(t, Config{Workers: 1, NoBackfill: true, Executor: exec})
			defer s.Shutdown(context.Background())
			res, expl, evicted, err := s.categorizeTrace(context.Background(), new(traceReader), storeJob(t, s, testJob(960)), explained)
			if err != nil || evicted != "" || res == nil {
				t.Fatalf("res=%v evicted=%q err=%v", res, evicted, err)
			}
			if (expl != nil) != explained {
				t.Fatalf("explanation %v with explained=%v", expl, explained)
			}
			wantPlain, wantExplained := int64(1), int64(0)
			if explained {
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
		close bool // close the store before the worker reads the trace back
	}{
		{why: failEvicted, job: corrupted},
		{why: failError, job: testJob(971), exec: failingExec{}},
		{why: failPersist, job: testJob(972), close: true},
	}
	for _, c := range cases {
		t.Run(c.why, func(t *testing.T) {
			s, st := newTestServer(t, Config{Workers: 1, NoBackfill: true, Executor: c.exec})
			defer s.Shutdown(context.Background())
			id := storeJob(t, s, c.job)
			if c.close {
				st.Close()
			}
			s.process(new(traceReader), ingestJob{id: id, reqID: "test", enq: time.Now()})
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

// TestWorkerJobOutlivesTruth: one worker's reader categorizes trace A,
// which carries metadata, then trace B — other metadata, more records,
// DXT events — then A again, into the job B left behind. What is stored
// for each, and the explanation the same reader derives next, are byte
// for byte what a fresh job categorizes to: nothing of one trace leaks
// into the next through the reused job. And a Result handed out before
// keeps its Truth, the job's Metadata map at the time: reading the next
// trace into the job must not rewrite it.
func TestWorkerJobOutlivesTruth(t *testing.T) {
	s, st := newTestServer(t, Config{Workers: 1, NoBackfill: true})
	defer s.Shutdown(context.Background())
	ctx := context.Background()
	a := testJob(980)
	a.Metadata = map[string]string{gen.TruthKey: "write_on_end", "site": "a"}
	b := archetypeJob(gen.DXTCheckpointerArchetype(true), 981)
	b.Metadata["site"] = "b"
	if len(b.Records) <= len(a.Records) || len(b.Records[0].DXTWrites)+len(b.Records[0].DXTReads) == 0 {
		t.Fatalf("trace B has %d records (A %d), DXT on its first: %v; the test needs more, and DXT",
			len(b.Records), len(a.Records), b.Records[0].DXTWrites != nil)
	}
	var reader traceReader
	first, _, _, err := s.categorizeTrace(ctx, &reader, storeJob(t, s, a), false)
	if err != nil {
		t.Fatal(err)
	}
	firstJSON, err := json.Marshal(first)
	if err != nil || first.Truth["site"] != "a" {
		t.Fatalf("A's result carries truth %v (%v)", first.Truth, err)
	}
	for _, j := range []*darshan.Job{a, b, a} {
		id := storeJob(t, s, j)
		s.process(&reader, ingestJob{id: id, reqID: "test", enq: time.Now()})
		res, expl, err := s.exec.CategorizeExplained(ctx, j, s.cfg, s.exOpts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.AppendResultJSON(nil, res)
		if err != nil {
			t.Fatal(err)
		}
		body, _, ok, err := st.ResultBody(id, s.fp)
		if err != nil || !ok || !bytes.Equal(body, want) {
			t.Fatalf("%s: stored result (ok=%v err=%v)\n%s\nwant\n%s", j.Exe, ok, err, body, want)
		}
		_, derived, _, err := s.categorizeTrace(ctx, &reader, id, true)
		if err != nil {
			t.Fatal(err)
		}
		sameJSON(t, j.Exe+" explanation", derived, expl)
		if got := reader.job.Metadata["site"]; got != j.Metadata["site"] {
			t.Fatalf("%s: the reader's job carries site %q", j.Exe, got)
		}
		if again, _ := json.Marshal(first); !bytes.Equal(again, firstJSON) {
			t.Fatalf("after reading %s, A's first result reads\n%s\nwas\n%s", j.Exe, again, firstJSON)
		}
	}
}
