package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The yardstick is a fixed piece of work, timed every few milliseconds
// for as long as a workload runs, that says how fast the machine is
// going right now. The sandbox is a two-core guest on a shared host, and
// what the host's other tenants do changes the speed of everything in
// the guest, CPU time included, by up to a factor of two, for seconds or
// for minutes at a stretch: ten runs of the same binary, minutes apart,
// spread by 30 to 55 % on every timing, which no bound could hold. The
// yardstick slows down by the same factor at the same moments, so a
// timing divided by it repeats within a few per cent (README.md, "The
// yardstick"). Every end-to-end duration is therefore stated in reference
// time: what was measured, divided by how much slower than yardNominal
// the yardstick ran while it was being measured.
//
// The work is decoding a small JSON document into structs: like the
// programs under test it parses bytes, allocates and follows pointers,
// and of the kernels tried (SHA-256 over a buffer, a pointer chase, this
// one) it is the one whose slowdown tracks theirs. It uses the standard
// library only, so no change to the repository's code moves it.

const (
	// yardNominal is what the kernel takes on the reference sandbox when
	// nothing else presses on the host. Only ratios between runs matter;
	// the constant keeps reported times close to what a quiet run reads.
	yardNominal = 130 * time.Microsecond
	// yardPeriod makes the yardstick about 1.5 % of each core.
	yardPeriod = 10 * time.Millisecond
	// yardRecords sizes the document: 50 records are 7 KB.
	yardRecords = 50
)

type yardRecord struct {
	ID     string   `json:"id"`
	Labels []string `json:"labels"`
	N      int      `json:"n"`
	F      float64  `json:"f"`
}

// yardDocument is the kernel's input, the same bytes in every run.
func yardDocument() []byte {
	rng := rand.New(rand.NewSource(1))
	recs := make([]yardRecord, yardRecords)
	for i := range recs {
		recs[i] = yardRecord{
			ID:     fmt.Sprintf("%032x", rng.Int63()),
			Labels: []string{"write_on_end", "metadata_high_spike", "read_on_start"},
			N:      i,
			F:      rng.Float64(),
		}
	}
	doc, err := json.Marshal(recs)
	if err != nil {
		panic(err) // a fixed value of plain types
	}
	return doc
}

// yardstick collects kernel timings until end: one goroutine per CPU,
// each locked to a thread that is pinned to its CPU.
type yardstick struct {
	mu   sync.Mutex
	at   []time.Time     // when each kernel run began
	took []time.Duration // the CPU time it used
	stop chan struct{}
	wg   sync.WaitGroup
}

// threadCPU is the CPU time the calling thread has used. The kernel is
// timed with it and not with the wall clock, so that being descheduled
// half-way, which says how busy the guest is and not how fast, does not
// count.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// pinThread binds the calling thread to one CPU. Where that is not
// allowed the thread stays where the scheduler puts it.
func pinThread(cpu int) {
	var mask [16]uint64 // room for 1024 CPUs
	mask[cpu/64%len(mask)] = 1 << (cpu % 64)
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}

// startYardstick starts a kernel loop on every CPU. With a single
// unpinned thread the kernel ran, for the length of a run, beside
// whichever server process the scheduler had put it with, and a workload
// that leaves the cores half idle read 10 % slower in one run than in
// the next for that reason alone; sampling every CPU alike takes the
// placement out.
func startYardstick() *yardstick {
	y := &yardstick{stop: make(chan struct{})}
	doc := yardDocument()
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		y.wg.Add(1)
		go y.run(cpu, doc)
	}
	return y
}

func (y *yardstick) run(cpu int, doc []byte) {
	defer y.wg.Done()
	runtime.LockOSThread() // threadCPU must read the same thread twice
	defer runtime.UnlockOSThread()
	pinThread(cpu)
	// The pauses are random, half to one and a half periods: the
	// open-loop workloads send on fixed schedules of 10, 20 and 100 ms,
	// and a yardstick ticking every 10 ms would time its kernel at the
	// same point of their cycle for a whole run.
	rng := rand.New(rand.NewSource(time.Now().UnixNano() + int64(cpu)))
	pause := time.NewTimer(yardPeriod)
	defer pause.Stop()
	for {
		select {
		case <-y.stop:
			return
		case <-pause.C:
		}
		pause.Reset(yardPeriod/2 + time.Duration(rng.Int63n(int64(yardPeriod))))
		var out []yardRecord
		at, c0 := time.Now(), threadCPU()
		err := json.Unmarshal(doc, &out)
		took := threadCPU() - c0
		if err != nil || len(out) != yardRecords {
			panic("yardstick document did not decode")
		}
		y.mu.Lock()
		y.at, y.took = append(y.at, at), append(y.took, took)
		y.mu.Unlock()
	}
}

// end stops the yardstick and waits for its goroutines.
func (y *yardstick) end() {
	close(y.stop)
	y.wg.Wait()
}

// slowdown is how much slower than yardNominal the kernel ran between
// from and to: the median of its timings there. A stretch too short for
// a median is an error.
func (y *yardstick) slowdown(from, to time.Time) (float64, error) {
	y.mu.Lock()
	var took []float64
	for i, at := range y.at {
		if !at.Before(from) && !at.After(to) {
			took = append(took, float64(y.took[i]))
		}
	}
	y.mu.Unlock()
	t, err := summarize("yardstick", took)
	if err != nil {
		return 0, err
	}
	return t.p50 / float64(yardNominal), nil
}
