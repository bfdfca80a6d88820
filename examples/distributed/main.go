// Distributed categorization over loopback RPC: start two in-process
// workers (stand-ins for mosaic-worker daemons on other hosts), then
// drive the staged corpus engine with the distributed Master plugged in
// as the Categorize-stage executor — the Dispy-style deployment of the
// paper's Section IV-E, in Go, sharing the exact same pipeline as the
// local CLI.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"github.com/mosaic-hpc/mosaic"
)

func main() {
	// Start two workers on ephemeral loopback ports.
	var addrs []string
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		addrs = append(addrs, l.Addr().String())
		go func() {
			if err := mosaic.ServeWorker(l); err != nil {
				log.Println("worker:", err)
			}
		}()
	}
	fmt.Println("workers listening on", addrs)

	// Connect the master: it is an alternate executor for the engine's
	// Categorize stage, so the funnel, backpressure, cancellation and
	// observability all come from the same pipeline the CLI uses.
	var clients []*mosaic.WorkerClient
	for _, a := range addrs {
		c, err := mosaic.DialWorker(a)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	master := mosaic.NewMaster(clients)

	// A small synthetic corpus (including corrupted traces the funnel
	// will evict before they ever reach the cluster).
	profile := mosaic.DefaultCorpusProfile()
	profile.Apps = 30
	profile.Seed = 11
	corpus := mosaic.PlanCorpus(profile)
	var jobs []*mosaic.Job
	corpus.Each(func(r mosaic.CorpusRun) bool {
		jobs = append(jobs, r.Job)
		return len(jobs) < 400
	})

	// Run the full staged pipeline with remote categorization and a
	// deadline: Scan → Decode → Funnel locally, Categorize on the
	// cluster, Aggregate locally.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	stats := mosaic.NewStageStats()
	analysis, err := mosaic.AnalyzeJobsContext(ctx, jobs, mosaic.Options{
		Executor: master,
		Observer: stats,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("funnel: %d traces, %d corrupted evicted, %d unique apps categorized on %d workers\n",
		analysis.Funnel.Total, analysis.Funnel.Corrupted, analysis.Funnel.UniqueApps, len(clients))
	fmt.Println("stages:", stats)

	fmt.Println("\ncategory rates over the distributed run:")
	for _, c := range []mosaic.Category{
		mosaic.Temporal(mosaic.DirRead, mosaic.OnStart),
		mosaic.Temporal(mosaic.DirWrite, mosaic.OnEnd),
		mosaic.Periodic(mosaic.DirWrite),
		mosaic.MetaHighSpike,
	} {
		fmt.Printf("  %-28s %5.1f%%\n", c, analysis.Aggregate.SingleRate(c)*100)
	}
}
