// Package parallel provides the worker-pool machinery MOSAIC uses to
// process traces concurrently. It plays the role of the Dispy library in
// the paper's Python implementation: per-trace categorization is pure and
// embarrassingly parallel, so throughput scales with workers until the
// corpus reader becomes the bottleneck.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default worker count: one per logical CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ForEach runs fn(i) for every i in [0, n) on the given number of workers
// and blocks until all invocations return. Indices are distributed by an
// atomic counter, so uneven task costs balance automatically (work
// sharing). workers <= 0 selects DefaultWorkers.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachCtx is ForEach with prompt cancellation: once ctx is done, no
// new indices are dispatched (in-flight invocations finish) and the
// context's error is returned. This is the fail-fast primitive: cancel
// the context on the first error and remaining work stops promptly
// instead of running the corpus to completion.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// Map applies fn to every item arriving on in, using the given number of
// workers, and sends results on the returned channel (closed when the
// input is exhausted or the context is cancelled). Result order is not
// preserved; use MapOrdered when it must be.
func Map[T, R any](ctx context.Context, workers int, in <-chan T, fn func(T) R) <-chan R {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	out := make(chan R, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case item, ok := <-in:
					if !ok {
						return
					}
					select {
					case out <- fn(item):
					case <-ctx.Done():
						return
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// MapOrdered applies fn to items from in on several workers while
// delivering results in input order. A bounded reorder window of size
// 2×workers keeps memory constant.
func MapOrdered[T, R any](ctx context.Context, workers int, in <-chan T, fn func(T) R) <-chan R {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	type seqItem struct {
		seq  uint64
		item T
	}
	type seqResult struct {
		seq uint64
		res R
	}
	tagged := make(chan seqItem, workers)
	go func() {
		defer close(tagged)
		var seq uint64
		for item := range in {
			select {
			case tagged <- seqItem{seq, item}:
				seq++
			case <-ctx.Done():
				return
			}
		}
	}()
	unordered := Map(ctx, workers, tagged, func(si seqItem) seqResult {
		return seqResult{si.seq, fn(si.item)}
	})
	out := make(chan R, workers)
	go func() {
		defer close(out)
		pending := make(map[uint64]R)
		var next uint64
		for r := range unordered {
			pending[r.seq] = r.res
			for {
				res, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				select {
				case out <- res:
					next++
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out
}
