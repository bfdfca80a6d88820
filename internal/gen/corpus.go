package gen

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// Profile describes a synthetic corpus: how many distinct applications to
// synthesize, the archetype mixture, the trace corruption rate (the Blue
// Waters funnel evicted 32% of traces) and the determinism seed.
type Profile struct {
	Apps           int     // number of unique (user, application) pairs
	Seed           int64   // master seed; same profile ⇒ same corpus
	CorruptionRate float64 // fraction of traces corrupted in storage
	MaxRunsPerApp  int     // cap on the geometric run-count tail
	Users          int     // distinct users
	Archetypes     []Archetype
}

// DefaultProfile returns a Blue-Waters-shaped corpus scaled to run on a
// laptop: ~1,500 applications whose execution counts expand to tens of
// thousands of traces.
func DefaultProfile() Profile {
	return Profile{
		Apps:           1500,
		Seed:           1,
		CorruptionRate: 0.32,
		MaxRunsPerApp:  3000,
		Users:          180,
		Archetypes:     DefaultArchetypes(),
	}
}

// App is one planned application: its archetype, fixed parameters, and how
// many times it ran.
type App struct {
	Index     int
	Archetype Archetype
	Params    AppParams
	User      string
	Exe       string
	Runs      int
	seed      int64

	// records is the most file records any run of the app has had so
	// far: the next run starts with room for that many.
	records atomic.Int64
}

// Run is one generated execution.
type Run struct {
	Job       *darshan.Job
	App       *App
	RunIndex  int
	Corrupted bool // the stored trace was corrupted
}

// Corpus is a deterministic plan of applications and runs; traces are
// generated on demand so that corpora far larger than memory can be
// streamed (the paper's Python pipeline needed 300 GB of RAM — we do not).
type Corpus struct {
	Profile Profile
	Apps    []*App
	total   int
}

// Plan lays out the corpus: archetypes are assigned to applications
// proportionally to their AppShare, per-application parameters are drawn,
// and run counts are sampled from a geometric tail with the archetype's
// mean.
func Plan(p Profile) *Corpus {
	if p.Apps <= 0 {
		p.Apps = 1
	}
	if p.Users <= 0 {
		p.Users = 1
	}
	if p.MaxRunsPerApp <= 0 {
		p.MaxRunsPerApp = 3000
	}
	if len(p.Archetypes) == 0 {
		p.Archetypes = DefaultArchetypes()
	}
	rng := rand.New(rand.NewSource(p.Seed))
	c := &Corpus{Profile: p}

	// Deterministic largest-remainder apportionment of apps to archetypes.
	counts := apportion(p.Apps, p.Archetypes)
	idx := 0
	for ai, arch := range p.Archetypes {
		for k := 0; k < counts[ai]; k++ {
			app := &App{
				Index:     idx,
				Archetype: arch,
				Params:    arch.Params(rng),
				User:      fmt.Sprintf("user%03d", rng.Intn(p.Users)),
				Exe:       fmt.Sprintf("%s-v%d", arch.Exe, idx),
				Runs:      geometricRuns(rng, arch.MeanRuns, p.MaxRunsPerApp),
				seed:      rng.Int63(),
			}
			c.Apps = append(c.Apps, app)
			c.total += app.Runs
			idx++
		}
	}
	return c
}

// apportion distributes n apps over the archetypes proportionally to
// AppShare using largest remainders.
func apportion(n int, archetypes []Archetype) []int {
	var shareSum float64
	for _, a := range archetypes {
		shareSum += a.AppShare
	}
	counts := make([]int, len(archetypes))
	rema := make([]float64, len(archetypes))
	used := 0
	for i, a := range archetypes {
		exact := float64(n) * a.AppShare / shareSum
		counts[i] = int(exact)
		rema[i] = exact - float64(counts[i])
		used += counts[i]
	}
	for used < n {
		best := 0
		for i := 1; i < len(rema); i++ {
			if rema[i] > rema[best] {
				best = i
			}
		}
		counts[best]++
		rema[best] = -1
		used++
	}
	return counts
}

// geometricRuns samples a run count with the given mean: P(k) declines
// geometrically, producing the heavy tail of "the same application run
// several hundred times" the paper describes.
func geometricRuns(rng *rand.Rand, mean float64, cap int) int {
	if mean <= 1 {
		return 1
	}
	p := 1 - 1/mean
	k := 1
	for rng.Float64() < p && k < cap {
		k++
	}
	return k
}

// TotalRuns returns the number of traces the corpus will generate.
func (c *Corpus) TotalRuns() int { return c.total }

// GenerateRun materializes one execution of one application. Runs are
// independent and deterministic in (profile seed, app index, run index),
// so corpora can be generated in parallel and in any order.
func (c *Corpus) GenerateRun(app *App, runIdx int) Run {
	rng := rand.New(rand.NewSource(app.seed ^ (int64(runIdx)+1)*0x7F4A7C159E3779B9))
	runtime := runJitter(rng, app.Params.RuntimeBase)
	jobID := uint64(app.Index)*1_000_000 + uint64(runIdx) + 1
	b := newBuilder(rng, app.User, app.Exe, jobID, app.Params.Ranks, runtime, int(app.records.Load()))
	b.Annotate(ArchetypeKey, app.Archetype.Name)
	app.Archetype.Build(b, app.Params)
	job := b.Job()
	app.sawRecords(len(job.Records))

	run := Run{Job: job, App: app, RunIndex: runIdx}
	if rng.Float64() < c.Profile.CorruptionRate {
		Corrupt(job, rng)
		run.Corrupted = true
	}
	return run
}

// sawRecords raises app.records to n if n is larger.
func (app *App) sawRecords(n int) {
	for seen := app.records.Load(); int64(n) > seen; seen = app.records.Load() {
		if app.records.CompareAndSwap(seen, int64(n)) {
			return
		}
	}
}

// Each streams every run of the corpus in plan order. The callback returns
// false to stop early.
func (c *Corpus) Each(fn func(Run) bool) {
	for _, app := range c.Apps {
		for r := 0; r < app.Runs; r++ {
			if !fn(c.GenerateRun(app, r)) {
				return
			}
		}
	}
}

// Generate materializes the whole corpus in memory. Only for small
// profiles (tests, disk export); large experiments stream with Each.
func (c *Corpus) Generate() []Run {
	out := make([]Run, 0, c.total)
	c.Each(func(r Run) bool {
		out = append(out, r)
		return true
	})
	return out
}

// Reservoir samples k runs uniformly from the corpus stream without
// materializing it (Vitter's algorithm R). Used by the accuracy
// experiment's 512-trace sampling protocol.
func (c *Corpus) Reservoir(k int, seed int64) []Run {
	rng := rand.New(rand.NewSource(seed))
	sample := make([]Run, 0, k)
	n := 0
	c.Each(func(r Run) bool {
		if len(sample) < k {
			sample = append(sample, r)
		} else if j := rng.Intn(n + 1); j < k {
			sample[j] = r
		}
		n++
		return true
	})
	return sample
}
