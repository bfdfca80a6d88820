package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/serve"
)

// shot is the outcome of one open-loop request.
type shot struct {
	latency time.Duration // from the time the request was due, not from when it was sent
	late    time.Duration // how long after it could have been sent the generator sent it
	err     error
}

// openLoop sends len(due) requests on a fixed schedule: request i is
// due at start+due[i] whatever happened to the ones before it. The
// senders are the connections: with all of them busy a request waits,
// and because latency runs from the due time that wait is charged to
// the system that caused it (no coordinated omission). late isolates
// the generator's own tardiness: the time between the moment a request
// was both due and had a free sender, and the moment it was sent.
func openLoop(ctx context.Context, start time.Time, due []time.Duration, senders int, do func(i int) error) []shot {
	shots := make([]shot, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				free := time.Now()
				dueAt := start.Add(due[i])
				if wait := dueAt.Sub(free); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						shots[i].err = ctx.Err()
						continue
					}
				}
				sent := time.Now()
				ready := dueAt
				if free.After(ready) {
					ready = free
				}
				err := do(i)
				shots[i] = shot{latency: time.Since(dueAt), late: sent.Sub(ready), err: err}
			}
		}()
	}
	wg.Wait()
	return shots
}

// tally counts one open-loop phase into the report and returns, in
// milliseconds, the latency of every request that succeeded and how
// late the generator sent it.
func (r *report) tally(phase string, shots []shot) (lat, late []float64) {
	for i, s := range shots {
		r.attempted++
		if s.err != nil {
			r.fail(1, "%s request %d: %v", phase, i, s.err)
			continue
		}
		lat = append(lat, ms(s.latency))
		late = append(late, ms(s.late))
	}
	return lat, late
}

// lateLimit is how late the generator may run at its tail before the
// load it offered is no longer the load the workload defines.
const lateLimit = 10 * time.Millisecond

// checkLateness reports the generator's lateness over a run's open-loop
// phases and makes the run invalid, not slow, when it passes lateLimit.
func (r *report) checkLateness(lates []float64) error {
	late, err := summarize("generator lateness", lates)
	if err != nil {
		return err
	}
	r.set("loadgen.late_tail_ms", late.tail)
	r.notef("generator lateness p%g = %.3f ms", late.tailP*100, late.tail)
	if late.tail > ms(lateLimit) {
		r.problemf("invalid load: the generator ran %.2f ms late at p%g (limit %v)", late.tail, late.tailP*100, lateLimit)
	}
	return nil
}

// evenSchedule spaces n = rate*dur requests evenly over dur.
func evenSchedule(rate float64, dur time.Duration) []time.Duration {
	n := int(rate * dur.Seconds())
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// ingestReq is one request of the ingest workload's open-loop phase.
type ingestReq struct {
	due    time.Duration
	trace  int  // index into the fresh-trace pool
	repost bool // the trace was already sent at least repostAge earlier
}

const (
	repostEvery = 5           // every 5th request re-posts an old trace
	repostAge   = time.Second // old enough to have been categorized: the cache-hit path
)

// ingestSchedule lays out the open-loop phase: evenly spaced requests,
// fresh traces in pool order, and every repostEvery-th request a seeded
// choice among the traces first sent at least repostAge before it.
func ingestSchedule(seed int64, rate float64, dur time.Duration) []ingestReq {
	rng := rand.New(rand.NewSource(seed))
	due := evenSchedule(rate, dur)
	reqs := make([]ingestReq, len(due))
	var firstSent []time.Duration // due time of fresh trace k
	old := 0                      // fresh traces old enough to re-post
	for i, d := range due {
		for old < len(firstSent) && firstSent[old]+repostAge <= d {
			old++
		}
		if i%repostEvery == repostEvery-1 && old > 0 {
			reqs[i] = ingestReq{due: d, trace: rng.Intn(old), repost: true}
			continue
		}
		reqs[i] = ingestReq{due: d, trace: len(firstSent)}
		firstSent = append(firstSent, d)
	}
	return reqs
}

// zipfStream draws n indexes below imax from a Zipf(1.1) law: index 0 is
// the hottest, so a prefix of the ID space fits a cache and the tail
// does not.
func zipfStream(seed int64, n, imax int) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(imax-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// newHTTPClient returns a client that never holds more than conns
// connections to a host: the load's connection count is part of the
// workload definition.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// ingestReply is the body of an ingest answer.
type ingestReply struct {
	Results []serve.IngestItem `json:"results"`
}

// postIngest posts one ingest body and decodes the per-item statuses.
// 200 and 202 are acks, 429 is backpressure and also carries statuses;
// anything else is an error.
func postIngest(ctx context.Context, c *http.Client, url, contentType string, body []byte) (ingestReply, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return ingestReply{}, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.Do(req)
	if err != nil {
		return ingestReply{}, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return ingestReply{}, resp.StatusCode, err
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted, http.StatusTooManyRequests:
	default:
		return ingestReply{}, resp.StatusCode, fmt.Errorf("POST %s answered %d: %.200s", url, resp.StatusCode, data)
	}
	var rep ingestReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return ingestReply{}, resp.StatusCode, fmt.Errorf("POST %s: decoding answer: %w", url, err)
	}
	return rep, resp.StatusCode, nil
}

// batchTally accounts for one sender's batch traffic.
type batchTally struct {
	posts     int            // HTTP requests made, re-sends included
	throttled int            // of which answered 429
	acked     map[int]string // item -> ID the server acknowledged it under
}

const resendDelay = 100 * time.Millisecond

// sendBatch pushes the blobs of items as one x-mosaic-batch body and
// keeps re-sending, resendDelay after each 429, only the items the
// server rejected, until every item is acknowledged. Acknowledged items
// are never sent again: the tally ends with each item acked exactly once.
func sendBatch(ctx context.Context, c *http.Client, url string, items []int, blob func(int) []byte, t *batchTally) error {
	for len(items) > 0 {
		var body []byte
		for _, it := range items {
			body = serve.AppendBatchFrame(body, blob(it))
		}
		rep, code, err := postIngest(ctx, c, url, serve.BatchContentType, body)
		if err != nil {
			return err
		}
		t.posts++
		if len(rep.Results) != len(items) {
			return fmt.Errorf("batch of %d answered with %d statuses", len(items), len(rep.Results))
		}
		var rejected []int
		for k, r := range rep.Results {
			switch r.Status {
			case serve.StatusAccepted, serve.StatusCached, serve.StatusPending:
				if _, dup := t.acked[items[k]]; dup {
					return fmt.Errorf("item %d acknowledged twice", items[k])
				}
				t.acked[items[k]] = string(r.ID)
			case serve.StatusRejected:
				rejected = append(rejected, items[k])
			default:
				return fmt.Errorf("item %d: status %q: %s", items[k], r.Status, r.Error)
			}
		}
		if code == http.StatusTooManyRequests {
			t.throttled++
		}
		if (code == http.StatusTooManyRequests) != (len(rejected) > 0) {
			return fmt.Errorf("status %d with %d rejected items", code, len(rejected))
		}
		items = rejected
		if len(items) > 0 {
			select {
			case <-time.After(resendDelay):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return nil
}

// idList decodes a JSON array of strings that need no unescaping (trace
// IDs are hex) by cutting at the quotes: a paged query answer holds ten
// thousand IDs, and decoding them one reflected element at a time would
// make the generator, which shares the cores with the server, a large
// part of what it measures. Any backslash sends it to encoding/json.
type idList []string

func (l *idList) UnmarshalJSON(data []byte) error {
	if bytes.IndexByte(data, '\\') >= 0 {
		var plain []string
		err := json.Unmarshal(data, &plain)
		*l = plain
		return err
	}
	s := string(data) // the IDs are substrings of this one copy
	out := make(idList, 0, strings.Count(s, `"`)/2)
	for {
		_, rest, ok := strings.Cut(s, `"`)
		if !ok {
			break
		}
		id, after, ok := strings.Cut(rest, `"`)
		if !ok {
			return fmt.Errorf("unterminated string in ID list")
		}
		out, s = append(out, id), after
	}
	*l = out
	return nil
}

// getJSON fetches url and decodes a 200 answer into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s answered %d: %.200s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("GET %s: decoding answer: %w", url, err)
	}
	return nil
}
