//go:build linux

package main

import (
	"bytes"
	"debug/elf"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// These tests run the built command as a process: what a shell sees of
// its signals and what the loader and the runtime do before main.

var (
	binOnce sync.Once
	binDir  string
	binPath string
	binErr  error
)

// TestMain removes the binary the process tests built.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// mosaicBinary builds the command once per test binary and returns its
// path.
func mosaicBinary(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		if binDir, binErr = os.MkdirTemp("", "mosaic-bin-"); binErr != nil {
			return
		}
		binPath = filepath.Join(binDir, "mosaic")
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			binErr = errors.New(string(out))
		}
	})
	if binErr != nil {
		t.Fatalf("building mosaic: %v", binErr)
	}
	return binPath
}

// startBlockedOnFIFO starts mosaic on target, where the run opens a FIFO
// no one writes to, and returns once a thread of the process sleeps in
// openat: the run is past main, and a corpus run has its signal handler.
func startBlockedOnFIFO(t *testing.T, target string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(mosaicBinary(t), target)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	openat := strconv.Itoa(syscall.SYS_OPENAT)
	seen := 0
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		tasks, _ := filepath.Glob(filepath.Join("/proc", strconv.Itoa(cmd.Process.Pid), "task", "*"))
		blocked := false
		for _, task := range tasks {
			sc, err := os.ReadFile(filepath.Join(task, "syscall"))
			if err != nil {
				if errors.Is(err, os.ErrPermission) {
					t.Skipf("cannot read %s/syscall: %v", task, err)
				}
				continue
			}
			st, _ := os.ReadFile(filepath.Join(task, "stat"))
			// stat is "pid (comm) state ...": the state follows the last ')'.
			state := st[bytes.LastIndexByte(st, ')')+2:]
			if strings.HasPrefix(string(sc), openat+" ") && len(state) > 0 && state[0] == 'S' {
				blocked = true
			}
		}
		// Twice in a row: a regular open seen mid-call does not sleep on.
		if !blocked {
			seen = 0
		} else if seen++; seen == 2 {
			return cmd, &stderr
		}
	}
	t.Fatalf("mosaic %s never blocked opening the FIFO; stderr:\n%s", target, stderr.String())
	return nil, nil
}

// waitStatus waits for cmd, failing the test if it outlives a few seconds.
func waitStatus(t *testing.T, cmd *exec.Cmd) syscall.WaitStatus {
	t.Helper()
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatal("mosaic was still running 5 s after SIGTERM")
	}
	return cmd.ProcessState.Sys().(syscall.WaitStatus)
}

// TestSignalEndsSingleTraceRun: a single-trace run installs no signal
// handler, so SIGTERM ends it by that signal even while it waits in a
// system call. SIGTERM rather than SIGINT, because a parent may start its
// children with SIGINT ignored.
func TestSignalEndsSingleTraceRun(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "x.mosd")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	cmd, stderr := startBlockedOnFIFO(t, fifo)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if ws := waitStatus(t, cmd); !ws.Signaled() || ws.Signal() != syscall.SIGTERM {
		t.Fatalf("mosaic %s after SIGTERM: exit status %d, want killed by SIGTERM; stderr:\n%s", fifo, ws.ExitStatus(), stderr)
	}
}

// TestSignalDrainsCorpusRun: a corpus run catches SIGTERM, drains the
// pipeline and exits 130 with "mosaic: interrupted", also while one of
// its files is a FIFO that blocks the scan in open.
func TestSignalDrainsCorpusRun(t *testing.T) {
	dir := t.TempDir()
	if err := syscall.Mkfifo(filepath.Join(dir, "x.mosd"), 0o600); err != nil {
		t.Fatal(err)
	}
	cmd, stderr := startBlockedOnFIFO(t, dir)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	ws := waitStatus(t, cmd)
	if ws.Signaled() || ws.ExitStatus() != 130 {
		t.Fatalf("mosaic %s after SIGTERM: status %v (exit %d), want exit 130; stderr:\n%s", dir, ws, ws.ExitStatus(), stderr)
	}
	if !strings.Contains(stderr.String(), "mosaic: interrupted") {
		t.Fatalf("stderr lacks %q:\n%s", "mosaic: interrupted", stderr)
	}
}

// TestBinaryIsStatic: the command links no network stack and no cgo, so
// the kernel starts it without a dynamic loader — no PT_INTERP segment.
func TestBinaryIsStatic(t *testing.T) {
	f, err := elf.Open(mosaicBinary(t))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, p := range f.Progs {
		if p.Type == elf.PT_INTERP {
			t.Fatal("mosaic has a PT_INTERP segment: it is dynamically linked and loads libc on every exec")
		}
	}
}

// TestInitAllocatesNothing: no package of this module allocates during
// package init of the command, under GODEBUG=inittrace=1. Allocation
// counts are deterministic, unlike init times: a lookup table built at
// init, a map literal or a wrapped sentinel error shows up here.
func TestInitAllocatesNothing(t *testing.T) {
	cmd := exec.Command(mosaicBinary(t)) // the usage path: every init, then exit 2
	cmd.Env = append(os.Environ(), "GODEBUG=inittrace=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 2 {
		t.Fatalf("mosaic with no argument: %v, want exit status 2", err)
	}
	// init <package> @<t> ms, <clock> ms clock, <bytes> bytes, <allocs> allocs
	traced := 0
	for _, line := range strings.Split(stderr.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 11 || f[0] != "init" || f[10] != "allocs" {
			continue
		}
		traced++
		if strings.HasPrefix(f[1], "github.com/mosaic-hpc/mosaic/") && f[9] != "0" {
			t.Errorf("%s allocates at init: %s bytes in %s allocations", f[1], f[7], f[9])
		}
	}
	if traced == 0 {
		t.Fatalf("no init trace on stderr:\n%s", stderr.String())
	}
}
