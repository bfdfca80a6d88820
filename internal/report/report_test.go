package report

import (
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/segment"
)

// resultWith fabricates a Result carrying the given categories.
func resultWith(id uint64, cats ...category.Category) *core.Result {
	res := &core.Result{
		JobID:      id,
		App:        "app",
		User:       "u",
		Categories: category.NewSet(cats...),
	}
	res.Labels = res.Categories.Strings()
	for _, c := range res.Categories.Sorted() {
		if c == category.Periodic(category.DirWrite) {
			res.Write.Groups = []segment.Group{{Count: 10, Period: 300, Magnitude: category.MagMinute, BusyRatio: 0.1}}
		}
		if c == category.Periodic(category.DirRead) {
			res.Read.Groups = []segment.Group{{Count: 8, Period: 20, Magnitude: category.MagSecond, BusyRatio: 0.1}}
		}
	}
	return res
}

func TestAggregatorRates(t *testing.T) {
	a := NewAggregator()
	a.Add(resultWith(1, category.Temporal(category.DirRead, category.OnStart)), 9)
	a.Add(resultWith(2, category.Temporal(category.DirRead, category.Insignificant)), 1)
	if a.Apps() != 2 || a.Runs() != 10 {
		t.Fatalf("apps=%d runs=%d", a.Apps(), a.Runs())
	}
	onStart := category.Temporal(category.DirRead, category.OnStart)
	if got := a.SingleRate(onStart); got != 0.5 {
		t.Fatalf("single rate = %g", got)
	}
	if got := a.AllRate(onStart); got != 0.9 {
		t.Fatalf("all rate = %g", got)
	}
}

func TestAggregatorTemporalityRows(t *testing.T) {
	a := NewAggregator()
	a.Add(resultWith(1, category.Temporal(category.DirRead, category.OnStart)), 1)
	a.Add(resultWith(2, category.Temporal(category.DirRead, category.Steady)), 1)
	a.Add(resultWith(3, category.Temporal(category.DirRead, category.AfterStart)), 1)
	a.Add(resultWith(4, category.Temporal(category.DirRead, category.BeforeEnd)), 1)
	single, _ := a.Temporality(category.DirRead)
	if single.OnStart != 0.25 || single.Steady != 0.25 {
		t.Fatalf("row = %+v", single)
	}
	if single.Others != 0.5 { // after_start + before_end
		t.Fatalf("others = %g", single.Others)
	}
}

func TestAggregatorPeriodicity(t *testing.T) {
	a := NewAggregator()
	a.Add(resultWith(1, category.Periodic(category.DirWrite)), 4)
	a.Add(resultWith(2), 6)
	single, all := a.Periodicity(category.DirWrite)
	if single.Periodic != 0.5 || single.NonPeriodic != 0.5 {
		t.Fatalf("single = %+v", single)
	}
	if all.Periodic != 0.4 {
		t.Fatalf("all = %+v", all)
	}
	if single.Magnitudes[category.MagMinute] != 0.5 {
		t.Fatalf("magnitudes = %v", single.Magnitudes)
	}
	if got := a.Periods(category.DirWrite); len(got) != 1 || got[0] != 300 {
		t.Fatalf("periods = %v", got)
	}
	if got := a.Periods(category.DirRead); len(got) != 0 {
		t.Fatalf("read periods = %v", got)
	}
}

func TestAggregatorMetadataDist(t *testing.T) {
	a := NewAggregator()
	a.Add(resultWith(1, category.MetaHighSpike), 3)
	a.Add(resultWith(2, category.MetaInsignificantLoad), 1)
	single, all := a.MetadataDist()
	if single[category.MetaHighSpike] != 0.5 || all[category.MetaHighSpike] != 0.75 {
		t.Fatalf("dist = %v / %v", single, all)
	}
}

func TestAggregatorCorrelations(t *testing.T) {
	a := NewAggregator()
	rs := category.Temporal(category.DirRead, category.OnStart)
	we := category.Temporal(category.DirWrite, category.OnEnd)
	ri := category.Temporal(category.DirRead, category.Insignificant)
	wi := category.Temporal(category.DirWrite, category.Insignificant)
	a.Add(resultWith(1, rs, we), 1)
	a.Add(resultWith(2, rs, we), 1)
	a.Add(resultWith(3, rs), 1)
	a.Add(resultWith(4, ri, wi), 1)
	a.Add(resultWith(5, ri, wi), 1)
	a.Add(resultWith(6, ri), 1)
	a.Add(resultWith(7, category.Periodic(category.DirWrite), category.PeriodicBusy(category.DirWrite, false)), 1)
	c := a.Correlations()
	if c.ReadStartWritesEnd < 0.66 || c.ReadStartWritesEnd > 0.67 {
		t.Fatalf("P(we|rs) = %g", c.ReadStartWritesEnd)
	}
	if c.InsigReadAlsoInsigWrite < 0.66 || c.InsigReadAlsoInsigWrite > 0.67 {
		t.Fatalf("P(wi|ri) = %g", c.InsigReadAlsoInsigWrite)
	}
	if c.PeriodicWriteLowBusy != 1 {
		t.Fatalf("P(low|periodic) = %g", c.PeriodicWriteLowBusy)
	}
}

func TestRenderers(t *testing.T) {
	a := NewAggregator()
	a.Add(resultWith(1,
		category.Temporal(category.DirRead, category.OnStart),
		category.Temporal(category.DirWrite, category.OnEnd),
		category.MetaHighSpike), 5)
	a.Add(resultWith(2,
		category.Temporal(category.DirRead, category.Insignificant),
		category.Temporal(category.DirWrite, category.Insignificant),
		category.Periodic(category.DirWrite),
		category.MetaInsignificantLoad), 2)

	var sb strings.Builder
	WriteTemporality(&sb, a)
	WritePeriodicity(&sb, a, category.DirWrite)
	WriteMetadata(&sb, a)
	WriteJaccard(&sb, a, 0.01)
	WriteHeatmap(&sb, a, 0)
	WriteCorrelations(&sb, a.Correlations())
	WriteFunnel(&sb, core.FunnelStats{Total: 10, Corrupted: 3, Valid: 7, UniqueApps: 2,
		ByReason: map[string]int{"bad_header": 3}})
	out := sb.String()
	for _, want := range []string{
		"Table III", "Table II", "Figure 4", "Figure 5", "Figure 3",
		"read_on_start", "metadata_high_spike", "bad_header",
		"Single run", "All runs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
}

func TestWriteResult(t *testing.T) {
	res := resultWith(9,
		category.Temporal(category.DirWrite, category.OnEnd),
		category.Periodic(category.DirWrite))
	res.Write.Chunks = []float64{1, 2, 3, 4}
	res.Write.TemporalS = "on_end"
	var sb strings.Builder
	WriteResult(&sb, res)
	out := sb.String()
	for _, want := range []string{"job 9", "periodic group", "on_end", "chunk volumes"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteResult missing %q in %q", want, out)
		}
	}
}

func TestBarAndCell(t *testing.T) {
	if bar(0.5, 10) != "#####....." {
		t.Fatalf("bar = %q", bar(0.5, 10))
	}
	if bar(-1, 4) != "...." || bar(2, 4) != "####" {
		t.Fatal("bar clamping")
	}
	if cell(0.01) != "." || cell(0.97) != "X" || cell(0.55) != "5" {
		t.Fatal("cell rendering")
	}
}

func TestWriteTimeline(t *testing.T) {
	j := &darshan.Job{
		JobID: 3, User: "u", Exe: "/bin/tl", NProcs: 4,
		Start: 0, End: 1000, Runtime: 1000,
	}
	for ts := 100.0; ts < 900; ts += 200 {
		j.Records = append(j.Records, darshan.FileRecord{
			Module: darshan.ModPOSIX, Path: "/c",
			C: darshan.Counters{
				Writes: 1, BytesWritten: 1 << 30,
				WriteStart: ts, WriteEnd: ts + 20,
			},
		})
	}
	cfg := core.DefaultConfig()
	res, err := core.Categorize(j, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteTimeline(&sb, j, res, cfg)
	out := sb.String()
	for _, want := range []string{"writes (raw)", "writes (merged)", "W", "write chunks", "time axis"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if res.Write.Periodic() && !strings.Contains(out, "P") {
		t.Error("periodic group track missing")
	}
	// Nil result renders the merge tracks only.
	sb.Reset()
	WriteTimeline(&sb, j, nil, cfg)
	if !strings.Contains(sb.String(), "writes (merged)") {
		t.Error("nil-result timeline broken")
	}
}
