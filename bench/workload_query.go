package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/serve"
)

// The query workload is the read path: one mosaic-serve over a store
// that was filled before it started, and dashboards that wait for their
// answers (a closed loop). No decode, no categorization, no store
// writes. The store is about ten times its read cache, and result IDs
// are requested under a Zipf law, so the head of the ID space is served
// from the cache and the tail from disk.

const (
	queryResults = 50_000 // about 45 MB of result records
	queryCacheMB = 4      // a tenth of the store, the ratio of a 400k-result store to the default 32 MB
)

// queryKind is one class of request in the mix.
type queryKind struct {
	name   string
	weight int  // share of the mix, in percent
	e      expr // nil for result and stats
	limit  int  // 0: none
}

var queryMix = []queryKind{
	{name: "result", weight: 40},
	{name: "point", weight: 20, e: andExpr{term("write_periodic_hour"), term("metadata_high_density")}},
	{name: "and_heavy", weight: 15, e: andExpr{term("read_on_start"), term("metadata_high_spike")}, limit: 100},
	{name: "not_heavy", weight: 10, e: notExpr{term("write_periodic")}, limit: 100},
	{name: "or_page", weight: 5, e: orExpr{term("write_on_end"), term("write_periodic")}},
	{name: "stats", weight: 10},
}

// queryOp is one request a client makes.
type queryOp struct {
	kind   int // index into queryMix
	result int // for kind "result": which stored result
}

// opStream is one client's seeded request stream.
type opStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newOpStream(seed int64, client, results int) *opStream {
	rng := rand.New(rand.NewSource(seed*1000 + int64(client)))
	return &opStream{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(results-1))}
}

func (s *opStream) next() queryOp {
	pick := s.rng.Intn(100)
	for k, q := range queryMix {
		if pick < q.weight {
			op := queryOp{kind: k}
			if q.name == "result" {
				op.result = int(s.zipf.Uint64())
			}
			return op
		}
		pick -= q.weight
	}
	panic("query mix weights do not sum to 100")
}

// queryReply is the body of a /v1/query answer.
type queryReply struct {
	Count   int    `json:"count"`
	Partial bool   `json:"partial"`
	IDs     idList `json:"ids"`
}

// queryURL is the request for kind q.
func queryURL(base string, q queryKind) string {
	u := base + "/v1/query?q=" + url.QueryEscape(q.e.String())
	if q.limit > 0 {
		u += "&limit=" + strconv.Itoa(q.limit)
	}
	return u
}

// checkQueryReply reports what is wrong with an answer, or "".
func checkQueryReply(q queryKind, want answer, got queryReply) string {
	n := got.Count
	if q.limit > 0 {
		n = min(n, q.limit)
	}
	switch {
	case got.Partial:
		return "partial answer"
	case len(got.IDs) != n:
		return fmt.Sprintf("%d IDs for count %d and limit %d", len(got.IDs), got.Count, q.limit)
	case !want.agrees(got.Count, got.IDs):
		return fmt.Sprintf("count %d, want %d, or the first IDs differ", got.Count, want.count)
	}
	return ""
}

func runQuery(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	storeDir := filepath.Join(e.work, "store")
	rs, err := timeSetup(e, rep, storeDir, func() (*resultSet, error) {
		return buildResultStore(storeDir, newPopulation(), e.seed, queryResults, e.nproc)
	})
	if err != nil {
		return nil, err
	}
	answers := make([]answer, len(queryMix))
	for k, q := range queryMix {
		if q.e != nil {
			answers[k] = evaluate(q.e, rs.ids, rs.of, rs.labels)
			rep.notef("%s: %q matches %d of %d", q.name, q.e, answers[k].count, queryResults)
		}
	}

	// Time to ready: recovery scan of the store plus index rebuild.
	cs := newClientSet(e.nproc)
	serveArgs := []string{"-store", storeDir, "-cache-mb", strconv.Itoa(queryCacheMB)}
	var srv *server
	var readies []float64
	for i := 0; i < e.restartCycles(); i++ {
		if srv != nil {
			srv.p.kill()
		}
		var ready time.Duration
		srv, ready, err = startServe(ctx, e, cs, "serve"+strconv.Itoa(i), serveArgs...)
		if err != nil {
			return nil, err
		}
		readies = append(readies, ready.Seconds())
	}
	if e.trace {
		rep.set("serve.ready_s", median(readies))
		rep.notef("serve.ready_s: median of %d starts over %d stored results, exec to first 200 on /healthz", len(readies), queryResults)
	}

	cpu0, err := srv.p.cpuNow()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	start := time.Now()
	deadline := start.Add(e.dur(1))
	type clientLog struct {
		lat      [][]float64 // per kind, ms
		problems []string
	}
	logs := make([]clientLog, e.nproc)
	var wg sync.WaitGroup
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			l.lat = make([][]float64, len(queryMix))
			ops := newOpStream(e.seed, c, queryResults)
			base := "http://" + srv.addr
			for time.Now().Before(deadline) && ctx.Err() == nil {
				op := ops.next()
				q := queryMix[op.kind]
				var problem string
				t0 := time.Now()
				switch {
				case q.e != nil:
					var got queryReply
					if err := getJSON(ctx, cs.load, queryURL(base, q), &got); err != nil {
						problem = err.Error()
					} else {
						problem = checkQueryReply(q, answers[op.kind], got)
					}
				case q.name == "result":
					var got core.Result
					if err := getJSON(ctx, cs.load, base+"/v1/results/"+string(rs.ids[op.result]), &got); err != nil {
						problem = err.Error()
					} else if want := rs.labels[rs.of[op.result]]; !slices.Equal(got.Labels, want) {
						problem = fmt.Sprintf("result %s carries %v, stored %v", rs.ids[op.result], got.Labels, want)
					}
				default:
					var got serve.StatsResponse
					if err := getJSON(ctx, cs.load, base+"/v1/stats", &got); err != nil {
						problem = err.Error()
					} else if got.Indexed != queryResults {
						problem = fmt.Sprintf("stats report %d indexed traces, want %d", got.Indexed, queryResults)
					}
				}
				// The latency includes decoding and checking the answer: the
				// client is not done before it has read what it asked for.
				l.lat[op.kind] = append(l.lat[op.kind], ms(time.Since(t0)))
				if problem != "" {
					l.problems = append(l.problems, q.name+": "+problem)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	slow, err := e.yard.slowdown(start, time.Now())
	if err != nil {
		return nil, err
	}
	rep.set("loadgen.slowdown", slow)
	cpu1, err := srv.p.cpuNow()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, srv.p.stderrTail())
	}
	rep.set("loadgen.cpu_share", float64(selfCPU()-self0)/float64(wall)/float64(e.nproc))

	byKind := make([][]float64, len(queryMix))
	var queries []float64
	for _, l := range logs {
		for k, lat := range l.lat {
			byKind[k] = append(byKind[k], lat...)
			if queryMix[k].e != nil {
				queries = append(queries, lat...)
			}
		}
		rep.failed += len(l.problems)
		for _, p := range l.problems[:min(3, len(l.problems))] {
			rep.problemf("%s", p)
		}
	}
	ops := 0
	for k, q := range queryMix {
		ops += len(byKind[k])
		t, err := summarize(q.name, byKind[k])
		if err != nil {
			return nil, err
		}
		rep.notef("%-9s n=%d p50=%.3f ms p%g=%.3f ms", q.name, t.n, t.p50, t.tailP*100, t.tail)
		switch q.name {
		case "result":
			rep.timed("op_p50_ms", t.p50, slow)
		case "not_heavy":
			rep.set("serve.not_heavy_p50_ms", t.p50)
		case "point":
			rep.set("serve.point_p50_ms", t.p50)
		}
	}
	rep.attempted = ops
	all, err := summarize("queries", queries)
	if err != nil {
		return nil, err
	}
	rep.set("serve.query_tail_ms", all.tail)
	rep.rate("work_per_s", float64(ops)/wall.Seconds(), slow)
	rep.timed("cpu_ms_per_op", ms(cpu1-cpu0)/float64(ops), slow)
	rep.notef("work_per_s: %d requests from %d closed-loop clients in %.2f s", ops, e.nproc, wall.Seconds())

	rss, err := srv.p.peakRSS()
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", rss)
	srv.p.kill()

	if e.trace {
		if err := traceQuery(ctx, e, rep, storeDir, rs, byKind); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
