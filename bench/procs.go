package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what every workload runs in.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	nproc   int    // sender goroutines, connections and -workers all stop here
	root    string // the checkout
	work    string // scratch state, removed on exit
	bin     string // where the binaries under test were built
	procs   *procSet
	yard    *yardstick
}

// procSet is every process a run has started, so that none outlives it.
type procSet struct {
	mu  sync.Mutex
	all []*proc
}

func (e *env) mosaic() string      { return filepath.Join(e.bin, "mosaic") }
func (e *env) mosaicServe() string { return filepath.Join(e.bin, "mosaic-serve") }

// dur scales a share of the run length.
func (e *env) dur(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// buildBinaries compiles the programs under test from the checkout's
// source. With a warm build cache this is a no-op check.
func (e *env) buildBinaries(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/mosaic", "./cmd/mosaic-serve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// proc is one process under test.
type proc struct {
	name   string
	cmd    *exec.Cmd
	stderr string // file in the workdir keeping the process's stderr
	exited chan struct{}
	err    error // from Wait
}

// start launches bin with args. Its stdout is discarded unless stdout is
// non-nil; its stderr is kept in the workdir and shown when a check fails.
func (e *env) start(ctx context.Context, name, bin string, stdout *bytes.Buffer, args ...string) (*proc, error) {
	logPath := filepath.Join(e.work, name+".stderr")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = logf
	if stdout != nil {
		cmd.Stdout = stdout
	}
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, stderr: logPath, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.exited)
	}()
	e.procs.mu.Lock()
	e.procs.all = append(e.procs.all, p)
	e.procs.mu.Unlock()
	return p, nil
}

// wait blocks until the process has ended and returns Wait's error.
func (p *proc) wait() error {
	<-p.exited
	return p.err
}

// kill is kill -9: no drain, no final sync. It returns once the process
// has been reaped.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.exited
}

// killAll ends every process this run started and waits for each.
func (e *env) killAll() {
	e.procs.mu.Lock()
	all := e.procs.all
	e.procs.mu.Unlock()
	for _, p := range all {
		p.kill()
	}
}

// cpuUsed is the user+system CPU of a finished process, from the rusage
// wait4 returned.
func (p *proc) cpuUsed() time.Duration {
	<-p.exited
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS reads a live process's peak resident set in MB (VmHWM). The
// rusage of a finished child cannot be used for this: Linux carries the
// high-water mark across exec, so a child's ru_maxrss is never below the
// resident set of the benchmark that spawned it.
func (p *proc) peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(string(data), "VmHWM:")
	if !ok {
		return 0, fmt.Errorf("no VmHWM in /proc status of %s", p.name)
	}
	f := strings.Fields(rest)
	kb, err := strconv.ParseFloat(f[0], 64)
	return kb / 1024, err
}

// watchRSS polls the peak resident set of a process that ends by itself;
// the returned function waits for it to end and gives the last reading,
// at most a poll interval before the exit.
func (p *proc) watchRSS() func() float64 {
	done := make(chan float64)
	go func() {
		peak := 0.0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := p.peakRSS(); err == nil {
				peak = max(peak, mb)
			}
			select {
			case <-p.exited:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 { return <-done }
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux the Go toolchain targets.
const clockTick = 100

// cpuNow reads the user+system CPU a live process has used so far, so a
// measured window can leave out start-up and recovery.
func (p *proc) cpuNow() (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line for %s", p.name)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// selfCPU is the benchmark's own user+system CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stderrTail returns the last lines a process wrote to stderr.
func (p *proc) stderrTail() string {
	data, err := os.ReadFile(p.stderr)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// freeAddrs picks n loopback addresses with ports that are free now.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// waitHealthy polls /healthz until it answers 200 and returns how long
// that took from since. A process that exits first is an error.
func waitHealthy(ctx context.Context, c *http.Client, p *proc, addr string, since time.Time) (time.Duration, error) {
	deadline := since.Add(60 * time.Second)
	for {
		resp, err := c.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(since), nil
			}
		}
		select {
		case <-p.exited:
			return 0, fmt.Errorf("%s exited before it was healthy: %v\n%s", p.name, p.err, p.stderrTail())
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s not healthy after 60s\n%s", p.name, p.stderrTail())
		}
	}
}
