// Package benchio defines the on-disk format of MOSAIC's pinned benchmark
// results (the BENCH_*.json files at the repository root) and the
// comparison logic behind the CI regression gate.
//
// The format is deliberately tiny: a schema version, the environment the
// numbers were taken on, and one entry per pinned benchmark with its
// ns/op, B/op and allocs/op. WriteGoBench renders the same data in the
// standard Go benchmark text format so benchstat can diff two files.
package benchio

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Schema is the current file schema version.
const Schema = 1

// Entry is one pinned benchmark measurement.
type Entry struct {
	Name        string  `json:"name"`         // full name, e.g. BenchmarkMeanShift/n=5k/binned
	NsPerOp     float64 `json:"ns_per_op"`    // best (minimum) over the run count
	BytesPerOp  int64   `json:"bytes_per_op"` // allocated bytes per op
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"` // b.N of the best run
}

// File is one benchmark result file.
type File struct {
	Schema  int     `json:"schema"`
	Go      string  `json:"go,omitempty"`   // runtime.Version()
	OS      string  `json:"os,omitempty"`   // GOOS
	Arch    string  `json:"arch,omitempty"` // GOARCH
	Entries []Entry `json:"entries"`
}

// Lookup returns the entry with the given name.
func (f *File) Lookup(name string) (Entry, bool) {
	for _, e := range f.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Read loads a benchmark file.
func Read(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("benchio: parse %s: %w", path, err)
	}
	if f.Schema != Schema {
		return File{}, fmt.Errorf("benchio: %s has schema %d, want %d", path, f.Schema, Schema)
	}
	return f, nil
}

// Write stores a benchmark file with stable formatting (sorted entries,
// indented JSON, trailing newline) so committed baselines diff cleanly.
func Write(path string, f File) error {
	f.Schema = Schema
	sort.Slice(f.Entries, func(i, j int) bool { return f.Entries[i].Name < f.Entries[j].Name })
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteGoBench renders the entries in the Go benchmark text format
// understood by benchstat:
//
//	BenchmarkName	N	ns/op	B/op	allocs/op
func WriteGoBench(w io.Writer, files ...File) error {
	var entries []Entry
	for _, f := range files {
		entries = append(entries, f.Entries...)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	for _, e := range entries {
		n := e.Iterations
		if n <= 0 {
			n = 1
		}
		if _, err := fmt.Fprintf(w, "%s\t%d\t%.1f ns/op\t%d B/op\t%d allocs/op\n",
			e.Name, n, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp); err != nil {
			return err
		}
	}
	return nil
}

// Regression is one way a benchmark got worse than the baseline allows:
// slower, allocating more often or more bytes, or gone.
type Regression struct {
	Name      string
	OldNs     float64
	NewNs     float64
	Ratio     float64 // NewNs / OldNs
	OldAllocs int64   // with NewAllocs, set when allocs/op rose past the gate
	NewAllocs int64
	OldBytes  int64 // with NewBytes, set when B/op rose past the gate
	NewBytes  int64
	Missed    bool // baseline entry absent from the fresh run
}

func (r Regression) String() string {
	switch {
	case r.Missed:
		return fmt.Sprintf("%s: present in baseline but not measured", r.Name)
	case r.NewAllocs > r.OldAllocs:
		return fmt.Sprintf("%s: %d allocs/op -> %d allocs/op", r.Name, r.OldAllocs, r.NewAllocs)
	case r.NewBytes > r.OldBytes:
		return fmt.Sprintf("%s: %d B/op -> %d B/op", r.Name, r.OldBytes, r.NewBytes)
	}
	return fmt.Sprintf("%s: %.0f ns/op -> %.0f ns/op (%.2fx, tolerance exceeded)",
		r.Name, r.OldNs, r.NewNs, r.Ratio)
}

// countLimit is the most allocs/op — or B/op — a fresh run may show
// against a baseline of old. Neither depends on host speed, so the ns/op
// tolerance does not apply: a small figure is a property of the code and
// must not rise at all, a large one (a generation build's megabytes, a
// cluster ingest's 9k allocations) moves by a handful with map growth
// and gets 1 %. Both do depend on GOMAXPROCS where a benchmark starts a
// worker per CPU (BenchmarkMeanShift/n=1k/grid: 6 allocs at one CPU, 31
// at two, 41 at four), so, as for ns/op, a baseline holds on the kind of
// host it was pinned on. One known wobble: a benchmark that allocates
// nothing but draws on a sync.Pool reads 11–12 B/op when a GC emptied the
// pool mid-run (BenchmarkQuery/{and,not}_heavy_page_1m); their pins are
// the figure with the refill in it, 12.
func countLimit(old int64) int64 {
	if old < 100 {
		return old
	}
	return old + old/100
}

// Compare returns every baseline entry whose fresh ns/op exceeds the
// baseline by more than the tolerance (e.g. 0.10 for +10%), whose fresh
// allocs/op or B/op exceeds countLimit of the baseline's, and every
// baseline entry missing from the fresh results. Fresh entries without a
// baseline are ignored — adding a benchmark is not a regression.
func Compare(baseline, fresh File, tolerance float64) []Regression {
	var regs []Regression
	for _, old := range baseline.Entries {
		cur, ok := fresh.Lookup(old.Name)
		if !ok {
			regs = append(regs, Regression{Name: old.Name, Missed: true})
			continue
		}
		if old.NsPerOp > 0 && cur.NsPerOp > old.NsPerOp*(1+tolerance) {
			regs = append(regs, Regression{
				Name:  old.Name,
				OldNs: old.NsPerOp,
				NewNs: cur.NsPerOp,
				Ratio: cur.NsPerOp / old.NsPerOp,
			})
		}
		if cur.AllocsPerOp > countLimit(old.AllocsPerOp) {
			regs = append(regs, Regression{
				Name:      old.Name,
				OldAllocs: old.AllocsPerOp,
				NewAllocs: cur.AllocsPerOp,
			})
		}
		if cur.BytesPerOp > countLimit(old.BytesPerOp) {
			regs = append(regs, Regression{
				Name:     old.Name,
				OldBytes: old.BytesPerOp,
				NewBytes: cur.BytesPerOp,
			})
		}
	}
	return regs
}
