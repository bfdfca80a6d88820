package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/explain"
)

// entryExec is Local that records which of the Executor contract's two
// categorization entry points the engine calls, and with which explain
// options.
type entryExec struct {
	Local
	plain, explained atomic.Int64

	mu   sync.Mutex
	opts []explain.Options
}

func (e *entryExec) Categorize(ctx context.Context, j *darshan.Job, cfg core.Config) (*core.Result, error) {
	e.plain.Add(1)
	return e.Local.Categorize(ctx, j, cfg)
}

func (e *entryExec) CategorizeExplained(ctx context.Context, j *darshan.Job, cfg core.Config, opts explain.Options) (*core.Result, *explain.Explanation, error) {
	e.explained.Add(1)
	e.mu.Lock()
	e.opts = append(e.opts, opts)
	e.mu.Unlock()
	return e.Local.CategorizeExplained(ctx, j, cfg, opts)
}

// TestRunExplainSelectsEntryPoint: Options.Explain alone decides which
// method of the executor the Categorize stage calls — every kept run
// goes through exactly one of them, never both.
func TestRunExplainSelectsEntryPoint(t *testing.T) {
	for _, explainOn := range []bool{true, false} {
		name := "plain"
		if explainOn {
			name = "explain"
		}
		t.Run(name, func(t *testing.T) {
			exec := &entryExec{Local: Local{Workers: 2}}
			res, err := Run(context.Background(), Jobs(testJobs(t, 30)), Options{
				Workers: 2, Explain: explainOn, Executor: exec,
			})
			if err != nil {
				t.Fatal(err)
			}
			apps := int64(len(res.Apps))
			if apps == 0 {
				t.Fatal("no apps analyzed")
			}
			wantPlain, wantExplained := apps, int64(0)
			if explainOn {
				wantPlain, wantExplained = 0, apps
			}
			if got := exec.plain.Load(); got != wantPlain {
				t.Errorf("Categorize called %d times, want %d", got, wantPlain)
			}
			if got := exec.explained.Load(); got != wantExplained {
				t.Errorf("CategorizeExplained called %d times, want %d", got, wantExplained)
			}
			for _, a := range res.Apps {
				if (a.Explanation != nil) != explainOn {
					t.Fatalf("app %s/%s: explanation %v with Explain=%v", a.User, a.App, a.Explanation, explainOn)
				}
			}
		})
	}
}

// TestRunExplainPassesExplainOptions: the run's ExplainOptions reach
// the executor unchanged.
func TestRunExplainPassesExplainOptions(t *testing.T) {
	want := explain.Options{Margin: 0.25, MaxSegments: 3}
	exec := &entryExec{Local: Local{Workers: 2}}
	if _, err := Run(context.Background(), Jobs(testJobs(t, 20)), Options{
		Workers: 2, Explain: true, ExplainOptions: want, Executor: exec,
	}); err != nil {
		t.Fatal(err)
	}
	if len(exec.opts) == 0 {
		t.Fatal("executor never asked for an explanation")
	}
	for _, got := range exec.opts {
		if got != want {
			t.Fatalf("executor got explain options %+v, want %+v", got, want)
		}
	}
}

// TestRunExplainedFailures: a failure on the explained entry point
// fails the run fast, exactly as a plain one does.
func TestRunExplainedFailures(t *testing.T) {
	res, err := Run(context.Background(), Jobs(testJobs(t, 60)), Options{
		Explain: true, Executor: failExec{failUser: "u0"},
	})
	if err == nil || !containsStr(err.Error(), "synthetic failure") {
		t.Fatalf("fail-fast error %v does not carry the cause", err)
	}
	if res != nil {
		t.Fatal("fail-fast must not return a partial analysis")
	}
}

// TestLocalCategorizeExplainedMatchesCategorize: Local's two entry
// points categorize identically; the explained one adds a record whose
// labels are the result's.
func TestLocalCategorizeExplainedMatchesCategorize(t *testing.T) {
	ctx, cfg, l := context.Background(), core.DefaultConfig(), Local{Workers: 1}
	for i, j := range testJobs(t, 8) {
		if darshan.Validate(j) != nil {
			continue
		}
		plain, err := l.Categorize(ctx, j, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, expl, err := l.CategorizeExplained(ctx, j, cfg, explain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Categories.Equal(plain.Categories) {
			t.Fatalf("job %d: explained categories %v, plain %v", i, res.Categories, plain.Categories)
		}
		if expl == nil || len(expl.Labels) != len(res.Labels) {
			t.Fatalf("job %d: explanation %v does not match labels %v", i, expl, res.Labels)
		}
	}
}

// TestLocalHonoursCancelledContext: both entry points return ctx's
// error, without categorizing, once ctx is done.
func TestLocalHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j, cfg := testJobs(t, 1)[0], core.DefaultConfig()
	t.Run("categorize", func(t *testing.T) {
		res, err := Local{}.Categorize(ctx, j, cfg)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("res=%v err=%v, want nil and context.Canceled", res, err)
		}
	})
	t.Run("explained", func(t *testing.T) {
		res, expl, err := Local{}.CategorizeExplained(ctx, j, cfg, explain.Options{})
		if !errors.Is(err, context.Canceled) || res != nil || expl != nil {
			t.Fatalf("res=%v expl=%v err=%v, want nils and context.Canceled", res, expl, err)
		}
	})
}

func TestRunExplainThreadsExplanations(t *testing.T) {
	jobs := testJobs(t, 40)
	res, err := Run(context.Background(), Jobs(jobs), Options{Workers: 4, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) == 0 {
		t.Fatal("no apps analyzed")
	}
	for _, a := range res.Apps {
		if a.Explanation == nil {
			t.Fatalf("app %s/%s: Explain run produced no explanation", a.User, a.App)
		}
		if a.Explanation.EvidenceCount() == 0 {
			t.Fatalf("app %s/%s: explanation carries no evidence", a.User, a.App)
		}
		// The explanation's labels are the result's labels.
		if got, want := len(a.Explanation.Labels), len(a.Result.Labels); got != want {
			t.Fatalf("app %s/%s: explanation labels %v, result labels %v",
				a.User, a.App, a.Explanation.Labels, a.Result.Labels)
		}
		for i, l := range a.Explanation.Labels {
			if l != a.Result.Labels[i] {
				t.Fatalf("app %s/%s: label mismatch %v vs %v",
					a.User, a.App, a.Explanation.Labels, a.Result.Labels)
			}
		}
	}
	// An explained run categorizes identically to a plain one.
	plain, err := Run(context.Background(), Jobs(jobs), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Apps) != len(res.Apps) {
		t.Fatalf("app count differs: explained %d plain %d", len(res.Apps), len(plain.Apps))
	}
	for i := range res.Apps {
		if !res.Apps[i].Result.Categories.Equal(plain.Apps[i].Result.Categories) {
			t.Fatalf("app %d: explained categories differ from plain run", i)
		}
	}
}

func TestRunWithoutExplainLeavesExplanationsNil(t *testing.T) {
	res, err := Run(context.Background(), Jobs(testJobs(t, 20)), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		if a.Explanation != nil {
			t.Fatalf("app %s/%s: explanation collected without Explain", a.User, a.App)
		}
	}
}
