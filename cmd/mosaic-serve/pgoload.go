//go:build ignore

// pgoload drives the loads default.pgo is profiled under; pgo.sh runs
// it against real mosaic-serve processes. It is not part of any build:
//
//	go run ./cmd/mosaic-serve/pgoload.go ingest SECONDS URL
//	go run ./cmd/mosaic-serve/pgoload.go query SECONDS URL
//	go run ./cmd/mosaic-serve/pgoload.go ring SECONDS URL URL URL
//
// The rates are the benchmark's. ingest posts 100 single traces a
// second (every fifth one a re-post) for half the time and 10 batches of
// 16 a second for the rest; query ingests 2000 traces untimed, waits
// until they are categorized and then makes 300 requests a second, three
// result reads (the first hundred IDs most often) to one boolean query
// (the benchmark's query clients are closed-loop; paced, they do not
// outweigh the write paths in the merged profile); ring
// posts 10 batches a second to each node in turn. Traces are canonical
// blobs (darshan.MarshalBinary) of the generated 600-application
// population, a third of them corrupted, as the repository benchmark
// posts them. Two senders, one per CPU of the reference host. It prints
// "ready" once the traces are generated (and, for query, stored), when
// the timed load starts.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

const senders = 2

var queries = []string{
	"write_on_end",
	"read_on_start AND NOT insignificant_load",
	"periodic_minute OR write_periodic",
	"NOT write_periodic",
	"(read_once OR read_on_start) AND write_on_end",
}

func main() {
	if len(os.Args) < 4 {
		fmt.Fprintln(os.Stderr, "usage: pgoload ingest|query|ring SECONDS URL...")
		os.Exit(2)
	}
	secs, err := strconv.Atoi(os.Args[2])
	if err != nil {
		fail(err)
	}
	mode, urls := os.Args[1], os.Args[3:]
	blobs := generate(4000)
	var ids []store.TraceID
	if mode == "query" {
		for i := 0; i < 2000; i += 16 {
			post(urls[0]+"/v1/traces:batch", "application/x-mosaic-batch", batch(blobs, i))
		}
		for _, b := range blobs[:2000] {
			ids = append(ids, store.HashBytes(b))
		}
		drained(urls[0])
	}
	fmt.Println("ready")
	until := time.Now().Add(time.Duration(secs) * time.Second)
	switch mode {
	case "ingest":
		half := time.Now().Add(time.Duration(secs) * time.Second / 2)
		run(half, 100, func(w, i int) {
			if i%5 == 4 {
				i--
			}
			post(urls[0]+"/v1/traces", "application/octet-stream", blobs[(w+senders*i)%len(blobs)])
		})
		run(until, 10, func(w, i int) {
			post(urls[0]+"/v1/traces:batch", "application/x-mosaic-batch", batch(blobs, 2000+16*(w+senders*i)))
		})
	case "query":
		run(until, 300, func(w, i int) {
			if i%4 == 3 {
				q := queries[i/4%len(queries)]
				get(urls[0] + "/v1/query?limit=100&q=" + url.QueryEscape(q))
				return
			}
			n := rand.Intn(len(ids))
			if i%2 == 0 {
				n %= 100
			}
			get(urls[0] + "/v1/results/" + string(ids[n]))
		})
	case "ring":
		run(until, 10, func(w, i int) {
			post(urls[i%len(urls)]+"/v1/traces:batch", "application/x-mosaic-batch", batch(blobs, 16*(w+senders*i)))
		})
	default:
		fail(fmt.Errorf("unknown load %q", mode))
	}
}

// generate encodes n runs of the population, in a fixed order.
func generate(n int) [][]byte {
	c := gen.Plan(gen.Profile{Apps: 600, CorruptionRate: 0.32, Seed: 1})
	var out [][]byte
	for r := 0; len(out) < n; r++ {
		for _, a := range c.Apps {
			if r < a.Runs && len(out) < n {
				b, err := darshan.MarshalBinary(c.GenerateRun(a, r).Job)
				if err != nil {
					fail(err)
				}
				out = append(out, b)
			}
		}
	}
	return out
}

// batch frames the 16 blobs from index i on as an x-mosaic-batch body.
func batch(blobs [][]byte, i int) []byte {
	var body []byte
	for k := 0; k < 16; k++ {
		b := blobs[(i+k)%len(blobs)]
		body = binary.LittleEndian.AppendUint32(body, uint32(len(b)))
		body = append(body, b...)
	}
	return body
}

// run calls op from each sender, with the sender's number and a count
// of its calls, until the deadline: perSec calls a second in all.
func run(until time.Time, perSec float64, op func(w, i int)) {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(until); i++ {
				time.Sleep(time.Until(start.Add(time.Duration(float64(i*senders+w) / perSec * float64(time.Second)))))
				op(w, i)
			}
		}()
	}
	wg.Wait()
}

func post(u, ct string, body []byte) {
	resp, err := http.Post(u, ct, bytes.NewReader(body))
	if err != nil {
		fail(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 && resp.StatusCode != http.StatusTooManyRequests {
		fail(fmt.Errorf("POST %s: %s", u, resp.Status))
	}
}

func get(u string) {
	resp, err := http.Get(u)
	if err != nil {
		fail(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// drained waits until the server has no categorization pending.
func drained(base string) {
	for {
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			fail(err)
		}
		var st struct {
			Pending int `json:"pending"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			fail(err)
		}
		if st.Pending == 0 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pgoload:", err)
	os.Exit(1)
}
