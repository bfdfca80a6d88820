package gen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

// corpus300SHA256 is the SHA-256 of the binary encodings of every run of
// DefaultProfile at 300 applications, in Each order. A change to the
// generator that moves it changes the corpus every experiment, golden
// and benchmark reads.
const corpus300SHA256 = "670a7d279d7901fbd82ce31515716f2f44b75eb8da94cc2c6fbf37590de1908a"

func TestCorpusBytesPinned(t *testing.T) {
	p := DefaultProfile()
	p.Apps = 300
	h := sha256.New()
	var buf []byte
	var err error
	Plan(p).Each(func(r Run) bool {
		if buf, err = darshan.AppendEncode(buf[:0], r.Job); err != nil {
			t.Fatal(err)
		}
		h.Write(buf)
		return true
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != corpus300SHA256 {
		t.Fatalf("corpus hash = %s, want %s", got, corpus300SHA256)
	}
}

// firstApps returns the first planned application of each archetype of a
// 300-application default corpus, with the record count of its first run.
func firstApps() ([]*App, []int, *Corpus) {
	p := DefaultProfile()
	p.Apps = 300
	c := Plan(p)
	var apps []*App
	var records []int
	seen := map[string]bool{}
	for _, app := range c.Apps {
		if seen[app.Archetype.Name] {
			continue
		}
		seen[app.Archetype.Name] = true
		apps = append(apps, app)
		records = append(records, len(c.GenerateRun(app, 0).Job.Records))
	}
	return apps, records, c
}

// TestGenerateRunAllocsFlat holds the generator's allocation contract: a
// warm run allocates a fixed handful of times, not once per record, so
// the largest archetype's run costs about as many allocations as the
// smallest's. (gen uses no sync.Pool, so AllocsPerRun counts exactly.)
func TestGenerateRunAllocsFlat(t *testing.T) {
	apps, records, c := firstApps()
	lo, hi := 0, 0
	for i := range apps {
		if records[i] < records[lo] {
			lo = i
		}
		if records[i] > records[hi] {
			hi = i
		}
	}
	allocs := func(app *App) float64 {
		return testing.AllocsPerRun(20, func() { c.GenerateRun(app, 0) })
	}
	small, large := allocs(apps[lo]), allocs(apps[hi])
	t.Logf("%s: %d records, %.0f allocs; %s: %d records, %.0f allocs",
		apps[lo].Archetype.Name, records[lo], small, apps[hi].Archetype.Name, records[hi], large)
	if records[hi] < 100*records[lo] {
		t.Fatalf("archetypes span only %d to %d records; the contract needs a wide range", records[lo], records[hi])
	}
	if large > small+4 {
		t.Fatalf("warm GenerateRun: %s (%d records) allocates %.0f times, %s (%d records) %.0f; want at most 4 more",
			apps[hi].Archetype.Name, records[hi], large, apps[lo].Archetype.Name, records[lo], small)
	}
}

// TestGenerateRunConcurrentSameApp: runs of one application generated
// from several goroutines at once, each sizing its trace from what the
// others have seen, are the runs a serial pass makes.
func TestGenerateRunConcurrentSameApp(t *testing.T) {
	p := DefaultProfile()
	p.Apps = 300
	encode := func(c *Corpus, app *App, r int) []byte {
		b, err := darshan.MarshalBinary(c.GenerateRun(app, r).Job)
		if err != nil {
			t.Error(err)
		}
		return b
	}
	serial, concurrent := Plan(p), Plan(p)
	app := serial.Apps[0]
	for _, a := range serial.Apps {
		if a.Runs > app.Runs {
			app = a
		}
	}
	runs := min(app.Runs, 64)
	want := make([][]byte, runs)
	for r := range want {
		want[r] = encode(serial, app, r)
	}
	got := make([][]byte, runs)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := w; r < runs; r += 4 {
				got[r] = encode(concurrent, concurrent.Apps[app.Index], r)
			}
		}()
	}
	wg.Wait()
	for r := range want {
		if !bytes.Equal(got[r], want[r]) {
			t.Fatalf("%s run %d differs when generated concurrently", app.Archetype.Name, r)
		}
	}
}

func TestBuilderJobTwice(t *testing.T) {
	b := NewBuilder(rand.New(rand.NewSource(3)), "u7", "/bin/x", 1, 4, 100)
	b.Burst(BurstSpec{At: 1, Duration: 2, Bytes: 1 << 20, Records: 3, Write: true, Shared: true})
	b.MetadataStorm(10, 20, 2, 100)
	j := b.Job()
	want := []string{
		"/scratch/u7/out.000001", "/scratch/u7/out.000001", "/scratch/u7/out.000001",
		"/scratch/u7/meta.000002", "/scratch/u7/meta.000003",
	}
	check := func(want []string) {
		t.Helper()
		if len(j.Records) != len(want) {
			t.Fatalf("%d records, want %d", len(j.Records), len(want))
		}
		for i, w := range want {
			if j.Records[i].Path != w {
				t.Fatalf("record %d path %q, want %q", i, j.Records[i].Path, w)
			}
		}
	}
	check(want)
	if b.Job() != j {
		t.Fatal("second Job call returned another job")
	}
	check(want)
	// Building goes on after Job; the next call finalizes the new records
	// and leaves the earlier paths as they were.
	b.SteadyHiddenPeriodic(false, 10, 0.1, 1<<20, 1, false)
	b.Job()
	check(append(want, "/scratch/u7/stream.000004"))
}

var sinkRun Run

func BenchmarkGenerateRun(b *testing.B) {
	apps, records, c := firstApps()
	for i, app := range apps {
		b.Run(app.Archetype.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(records[i]), "records")
			for n := 0; n < b.N; n++ {
				sinkRun = c.GenerateRun(app, n%app.Runs)
			}
		})
	}
}
