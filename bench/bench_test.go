package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/index"
	"github.com/mosaic-hpc/mosaic/internal/serve"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	tm, err := summarize("x", samples)
	if err != nil {
		t.Fatal(err)
	}
	if tm.n != 500 || tm.p50 != 250 || tm.tailP != 0.95 || tm.tail != 475 {
		t.Errorf("500 samples summarized as %+v, want p50 250 and p95 475", tm)
	}
	if _, err := summarize("x", samples[:19]); err == nil {
		t.Error("19 samples gave a median")
	}
	if tm, _ := summarize("x", samples[:50]); tm.tailP != 0 {
		t.Errorf("50 samples gave a p%g tail", tm.tailP*100)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// A stalled request must show up in the latencies of the requests due
// while it stalled: they are timed from when they were due.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	due := evenSchedule(200, 100*time.Millisecond) // one every 5 ms
	shots := openLoop(context.Background(), time.Now(), due, 1, func(i int) error {
		if i == 2 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(shots) != 20 {
		t.Fatalf("%d shots, want 20", len(shots))
	}
	if shots[1].latency > stall/2 {
		t.Errorf("request before the stall took %v", shots[1].latency)
	}
	// Request 3 was due 5 ms into the stall and could only start when it ended.
	if shots[3].latency < stall-10*time.Millisecond {
		t.Errorf("request due during the stall took %v, want about %v", shots[3].latency, stall-5*time.Millisecond)
	}
	// Waiting for the only sender is the system's doing, not the generator's.
	if shots[3].late > 10*time.Millisecond {
		t.Errorf("generator lateness of the delayed request is %v", shots[3].late)
	}
	// The backlog drains and the schedule is met again.
	if last := shots[len(shots)-1]; last.latency > stall/2 {
		t.Errorf("last request still took %v", last.latency)
	}
}

func TestSchedulesDependOnlyOnTheSeed(t *testing.T) {
	a := ingestSchedule(7, 100, 5*time.Second)
	b := ingestSchedule(7, 100, 5*time.Second)
	c := ingestSchedule(8, 100, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different ingest schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same ingest schedule")
	}
	reposts := 0
	firstDue := map[int]time.Duration{}
	for i, r := range a {
		if !r.repost {
			firstDue[r.trace] = r.due
			continue
		}
		reposts++
		if i%repostEvery != repostEvery-1 {
			t.Fatalf("request %d is a re-post", i)
		}
		if sent, ok := firstDue[r.trace]; !ok || r.due-sent < repostAge {
			t.Fatalf("request %d re-posts trace %d first sent at %v, due %v", i, r.trace, sent, r.due)
		}
	}
	if reposts != 80 { // every 5th of 500, none in the first second
		t.Errorf("%d re-posts, want 80", reposts)
	}

	if !slices.Equal(zipfStream(7, 1000, 50000), zipfStream(7, 1000, 50000)) {
		t.Error("same seed gave different Zipf streams")
	}
	if slices.Equal(zipfStream(7, 1000, 50000), zipfStream(8, 1000, 50000)) {
		t.Error("different seeds gave the same Zipf stream")
	}
	s1, s2 := newOpStream(7, 0, 50000), newOpStream(7, 0, 50000)
	kinds := make([]int, len(queryMix))
	for i := 0; i < 10000; i++ {
		op := s1.next()
		if op != s2.next() {
			t.Fatal("same seed gave different query streams")
		}
		kinds[op.kind]++
	}
	for k, q := range queryMix {
		if share := float64(kinds[k]) / 100; share < float64(q.weight)-2 || share > float64(q.weight)+2 {
			t.Errorf("%s is %.1f%% of the stream, want %d%%", q.name, share, q.weight)
		}
	}
}

// A server that rejects part of a batch with 429 must be re-sent only
// the rejected items, and every item ends up acknowledged exactly once.
func TestBatchResendAccounting(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{} // blob -> times received
	var sizes []int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var rep ingestReply
		code := http.StatusAccepted
		mu.Lock()
		n := 0
		for len(body) > 0 {
			size := int(body[0]) | int(body[1])<<8 | int(body[2])<<16 | int(body[3])<<24
			blob := string(body[4 : 4+size])
			body = body[4+size:]
			seen[blob]++
			n++
			// Odd items are rejected the first time they arrive.
			if blob[len(blob)-1]%2 == 1 && seen[blob] == 1 {
				rep.Results = append(rep.Results, serve.IngestItem{Status: serve.StatusRejected})
				code = http.StatusTooManyRequests
				continue
			}
			rep.Results = append(rep.Results, serve.IngestItem{ID: store.TraceID("id-" + blob), Status: serve.StatusAccepted})
		}
		sizes = append(sizes, n)
		mu.Unlock()
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(rep)
	}))
	defer srv.Close()

	tally := batchTally{acked: map[int]string{}}
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	blob := func(i int) []byte { return []byte{'b', byte('0' + i)} }
	if err := sendBatch(context.Background(), srv.Client(), srv.URL, items, blob, &tally); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sizes, []int{8, 4}) {
		t.Errorf("posts carried %v items, want [8 4]", sizes)
	}
	if tally.posts != 2 || tally.throttled != 1 {
		t.Errorf("tally %d posts, %d throttled; want 2, 1", tally.posts, tally.throttled)
	}
	for _, i := range items {
		if want := "id-" + string(blob(i)); tally.acked[i] != want {
			t.Errorf("item %d acknowledged as %q, want %q", i, tally.acked[i], want)
		}
		if want := 1 + i%2; seen[string(blob(i))] != want {
			t.Errorf("item %d was sent %d times, want %d", i, seen[string(blob(i))], want)
		}
	}
}

func TestIDListDecodesLikeEncodingJSON(t *testing.T) {
	for _, doc := range []string{
		`{"count":3,"ids":["ab","cd","ef"]}`,
		"{\n  \"count\": 2,\n  \"ids\": [\n    \"ab\",\n    \"cd\"\n  ]\n}",
		`{"count":0,"ids":[]}`,
		`{"count":1,"ids":["a\u0062"]}`,
	} {
		var got queryReply
		var want struct{ IDs []string }
		if err := json.Unmarshal([]byte(doc), &got); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal([]string(got.IDs), want.IDs) {
			t.Errorf("%s: decoded %q, encoding/json %q", doc, got.IDs, want.IDs)
		}
	}
}

// The benchmark's set evaluation and the index package's reference
// evaluator are written independently; they must agree on every query
// the benchmark sends.
func TestOracleAgreesWithIndexOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	all := category.All()
	var labels [][]string
	for d := 0; d < 40; d++ {
		var ls []string
		for _, c := range all {
			if rng.Intn(4) == 0 {
				ls = append(ls, string(c))
			}
		}
		labels = append(labels, ls)
	}
	ref := index.NewOracle()
	ids := make([]store.TraceID, 500)
	of := make([]int32, len(ids))
	for k := range ids {
		ids[k], of[k] = syntheticID(3, k), int32(rng.Intn(len(labels)))
		set := category.NewSet()
		for _, l := range labels[of[k]] {
			set.Add(category.Category(l))
		}
		ref.Add(ids[k], set)
	}
	exprs := []expr{
		orExpr{term("write_on_end"), notExpr{term("write_on_end")}},
		notExpr{andExpr{term("periodic"), orExpr{term("read_steady"), term("insignificant")}}},
		andExpr{orExpr{term("write_on_end"), term("read_on_start")}, notExpr{term("metadata_high_spike")}},
	}
	for _, q := range queryMix {
		if q.e != nil {
			exprs = append(exprs, q.e)
		}
	}
	for _, e := range exprs {
		want, err := ref.QueryIDs(e.String())
		if err != nil {
			t.Fatalf("%q: %v", e, err)
		}
		got := evaluate(e, ids, of, labels)
		if got.count != len(want) || !slices.Equal(got.head, want[:min(headLen, len(want))]) {
			t.Errorf("%q: %d matches, reference %d, or the first IDs differ", e, got.count, len(want))
		}
		if !got.agrees(len(want), want) || got.agrees(len(want)+1, want) {
			t.Errorf("%q: agrees() does not tell the reference answer from a wrong count", e)
		}
	}
}

// The slowdown over a stretch is the median kernel time inside it over
// the nominal one; samples outside the stretch do not count, and a
// stretch with too few samples gives no number.
func TestSlowdownIsTheMedianInsideTheStretch(t *testing.T) {
	t0 := time.Now()
	y := &yardstick{}
	for i := 0; i < 100; i++ {
		took := yardNominal
		switch {
		case i >= 60: // the machine runs at half speed from here on
			took = 2 * yardNominal
		case i%4 == 0: // a quarter of the samples caught a burst
			took = 5 * yardNominal
		}
		y.at = append(y.at, t0.Add(time.Duration(i)*yardPeriod))
		y.took = append(y.took, took)
	}
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * yardPeriod) }
	if s, err := y.slowdown(at(0), at(59)); err != nil || s != 1 {
		t.Errorf("slowdown over the fast stretch = %v, %v; want 1", s, err)
	}
	if s, err := y.slowdown(at(60), at(99)); err != nil || s != 2 {
		t.Errorf("slowdown over the slow stretch = %v, %v; want 2", s, err)
	}
	if _, err := y.slowdown(at(0), at(10)); err == nil {
		t.Error("11 samples gave a slowdown")
	}
}

// Every batch evenBatches forms holds the same traces overall, and the
// batches weigh nearly the same although the traces do not.
func TestEvenBatchesWeighTheSame(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	traces := make([]trace, 16*20+5)
	total := 0
	for i := range traces {
		n := int(1024 * math.Pow(2, 8*rng.Float64())) // 1 KB to 256 KB
		traces[i] = trace{blob: make([]byte, n), id: store.TraceID(rune('a' + i%26))}
		total += n
	}
	before := map[*byte]bool{}
	for _, tr := range traces {
		before[&tr.blob[0]] = true
	}
	tail := traces[16*20].blob
	evenBatches(traces, 16)
	for _, tr := range traces {
		if !before[&tr.blob[0]] {
			t.Fatal("a trace appeared that was not there before")
		}
		delete(before, &tr.blob[0])
	}
	if len(before) != 0 {
		t.Fatalf("%d traces were lost", len(before))
	}
	if &traces[16*20].blob[0] != &tail[0] {
		t.Error("the remainder after the last whole batch moved")
	}
	lo, hi := total, 0
	for b := 0; b < 20; b++ {
		w := 0
		for _, tr := range traces[b*16 : (b+1)*16] {
			w += len(tr.blob)
		}
		lo, hi = min(lo, w), max(hi, w)
	}
	if float64(hi) > 1.2*float64(lo) {
		t.Errorf("batches weigh from %d to %d bytes", lo, hi)
	}
}

// BENCHMARK.json and the metric tables say the same thing.
func TestManifestListsTheSameMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("manifest workloads %v, program %v", names, want)
	}
	same := func(kind string, got []entry, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: manifest lists %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: manifest %+v, program %+v", kind, i, g, d)
			}
		}
	}
	same("end-to-end", m.EndToEnd, endToEnd)
	same("per-layer", m.PerLayer, perLayer)
}
