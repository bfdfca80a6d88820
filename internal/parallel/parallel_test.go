package parallel

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	const n = 1000
	seen := make([]atomic.Bool, n)
	ForEach(8, n, func(i int) {
		if seen[i].Swap(true) {
			t.Errorf("index %d visited twice", i)
		}
	})
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("index %d never visited", i)
		}
	}
}

func TestForEachDegenerate(t *testing.T) {
	called := false
	ForEach(4, 0, func(int) { called = true })
	if called {
		t.Fatal("n=0 should not call fn")
	}
	// Workers > n and workers <= 0 both work.
	var count atomic.Int32
	ForEach(100, 3, func(int) { count.Add(1) })
	ForEach(0, 3, func(int) { count.Add(1) })
	if count.Load() != 6 {
		t.Fatalf("count = %d", count.Load())
	}
}

func TestForEachActuallyParallel(t *testing.T) {
	var concurrent, peak atomic.Int32
	ForEach(4, 16, func(int) {
		c := concurrent.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		concurrent.Add(-1)
	})
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency = %d, want >= 2", peak.Load())
	}
}

func feed(n int) <-chan int {
	ch := make(chan int)
	go func() {
		defer close(ch)
		for i := 0; i < n; i++ {
			ch <- i
		}
	}()
	return ch
}

func TestMapProcessesEverything(t *testing.T) {
	out := Map(context.Background(), 4, feed(100), func(i int) int { return i * 2 })
	sum := 0
	count := 0
	for v := range out {
		sum += v
		count++
	}
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
	if sum != 99*100 { // 2 * (0+...+99)
		t.Fatalf("sum = %d", sum)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan int)
	go func() {
		for i := 0; ; i++ {
			select {
			case in <- i:
			case <-ctx.Done():
				close(in)
				return
			}
		}
	}()
	out := Map(ctx, 2, in, func(i int) int { return i })
	<-out
	cancel()
	// The output channel must eventually close after cancellation.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("Map did not terminate after cancel")
		}
	}
}

func TestMapOrderedPreservesOrder(t *testing.T) {
	out := MapOrdered(context.Background(), 8, feed(500), func(i int) int {
		if i%7 == 0 {
			time.Sleep(time.Millisecond) // jitter completion order
		}
		return i
	})
	want := 0
	for v := range out {
		if v != want {
			t.Fatalf("out of order: got %d, want %d", v, want)
		}
		want++
	}
	if want != 500 {
		t.Fatalf("received %d items", want)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}

func TestForEachCtxCoversAllIndices(t *testing.T) {
	const n = 500
	var hits [n]atomic.Int32
	if err := ForEachCtx(context.Background(), 8, n, func(i int) {
		hits[i].Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestForEachCtxStopsPromptlyOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEachCtx(ctx, 2, 1_000_000, func(i int) {
		if ran.Add(1) == 10 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers stop dispatching after cancel: far fewer than n ran.
	if got := ran.Load(); got > 1000 {
		t.Fatalf("%d indices ran after cancellation", got)
	}
}

// TestForEachCtxDegenerate: an empty range runs nothing and reports
// only the context's state; workers <= 0 selects the default and still
// covers every index once.
func TestForEachCtxDegenerate(t *testing.T) {
	called := false
	if err := ForEachCtx(context.Background(), 4, 0, func(int) { called = true }); err != nil || called {
		t.Fatalf("n=0: err=%v called=%v", err, called)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ForEachCtx(ctx, 4, -1, func(int) { called = true }); err != context.Canceled || called {
		t.Fatalf("n=-1 on a cancelled context: err=%v called=%v", err, called)
	}
	const n = 64
	var hits [n]atomic.Int32
	if err := ForEachCtx(context.Background(), 0, n, func(i int) { hits[i].Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("workers=0: index %d ran %d times", i, hits[i].Load())
		}
	}
}

// TestMapOrderedCancellation: after cancel, MapOrdered's output closes
// even though its input never does, and what it delivered before was
// in order.
func TestMapOrderedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan int)
	go func() {
		for i := 0; ; i++ {
			select {
			case in <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	out := MapOrdered(ctx, 3, in, func(i int) int { return i })
	for want := 0; want < 10; want++ {
		if got := <-out; got != want {
			t.Fatalf("out of order before cancel: got %d, want %d", got, want)
		}
	}
	cancel()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("MapOrdered did not terminate after cancel")
		}
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	if err := ForEachCtx(ctx, 4, 100, func(i int) { ran.Add(1) }); err == nil {
		t.Fatal("pre-cancelled context not surfaced")
	}
}
