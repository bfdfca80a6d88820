package benchio

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sample() File {
	return File{
		Go: "go1.x", OS: "linux", Arch: "amd64",
		Entries: []Entry{
			{Name: "BenchmarkB/sub", NsPerOp: 200, BytesPerOp: 64, AllocsPerOp: 2, Iterations: 100},
			{Name: "BenchmarkA", NsPerOp: 1000.5, BytesPerOp: 128, AllocsPerOp: 3, Iterations: 50},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := Write(path, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || len(got.Entries) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// Write sorts entries by name.
	if got.Entries[0].Name != "BenchmarkA" {
		t.Fatalf("entries not sorted: %+v", got.Entries)
	}
	if e, ok := got.Lookup("BenchmarkB/sub"); !ok || e.NsPerOp != 200 {
		t.Fatalf("lookup failed: %+v %v", e, ok)
	}
	if _, ok := got.Lookup("BenchmarkC"); ok {
		t.Fatal("lookup of missing entry succeeded")
	}
}

func TestReadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeRaw(path, `{"schema": 99, "entries": []}`); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("schema 99 accepted")
	}
}

func TestWriteGoBench(t *testing.T) {
	var b strings.Builder
	if err := WriteGoBench(&b, sample()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "BenchmarkA\t50\t1000.5 ns/op\t128 B/op\t3 allocs/op") {
		t.Fatalf("bad benchstat text:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "BenchmarkA") {
		t.Fatalf("unexpected layout:\n%s", out)
	}
}

func TestCompare(t *testing.T) {
	base := File{Entries: []Entry{
		{Name: "X", NsPerOp: 100},
		{Name: "Y", NsPerOp: 100},
		{Name: "Z", NsPerOp: 100},
	}}
	fresh := File{Entries: []Entry{
		{Name: "X", NsPerOp: 109}, // within 10%
		{Name: "Y", NsPerOp: 150}, // regression
		{Name: "W", NsPerOp: 1},   // new benchmark: ignored
	}}
	regs := Compare(base, fresh, 0.10)
	if len(regs) != 2 {
		t.Fatalf("want regression for Y and missing Z, got %v", regs)
	}
	byName := map[string]Regression{}
	for _, r := range regs {
		byName[r.Name] = r
	}
	if r := byName["Y"]; r.Missed || r.Ratio != 1.5 {
		t.Fatalf("Y regression wrong: %+v", r)
	}
	if r := byName["Z"]; !r.Missed || !strings.Contains(r.String(), "not measured") {
		t.Fatalf("Z should be reported missing: %+v", r)
	}
	if regs := Compare(base, base, 0); len(regs) != 0 {
		t.Fatalf("identical files must not regress: %v", regs)
	}
}

// TestCompareAllocs: allocs/op and B/op are each gated on their own,
// whatever the ns/op tolerance: exactly below 100 per op, within 1 % from
// there up, and a fall is never a regression.
func TestCompareAllocs(t *testing.T) {
	base := File{Entries: []Entry{
		{Name: "zero", NsPerOp: 100, AllocsPerOp: 0, BytesPerOp: 12},
		{Name: "small", NsPerOp: 100, AllocsPerOp: 99},
		{Name: "edge", NsPerOp: 100, AllocsPerOp: 100},
		{Name: "big", NsPerOp: 100, AllocsPerOp: 74496},
		{Name: "fewer", NsPerOp: 100, AllocsPerOp: 622},
	}}
	fresh := func(zero, small, edge, big int64) File {
		return File{Entries: []Entry{
			{Name: "zero", NsPerOp: 100, AllocsPerOp: zero, BytesPerOp: 12},
			{Name: "small", NsPerOp: 100, AllocsPerOp: small},
			{Name: "edge", NsPerOp: 100, AllocsPerOp: edge},
			{Name: "big", NsPerOp: 100, AllocsPerOp: big},
			{Name: "fewer", NsPerOp: 100, AllocsPerOp: 223},
		}}
	}
	if regs := Compare(base, fresh(0, 99, 101, 74496+744), 10); len(regs) != 0 {
		t.Fatalf("allocs within the gate reported: %v", regs)
	}
	regs := Compare(base, fresh(1, 100, 102, 74496+745), 10)
	if len(regs) != 4 {
		t.Fatalf("want zero, small, edge and big over the gate, got %v", regs)
	}
	for i, want := range []string{
		"zero: 0 allocs/op -> 1 allocs/op",
		"small: 99 allocs/op -> 100 allocs/op",
		"edge: 100 allocs/op -> 102 allocs/op",
		"big: 74496 allocs/op -> 75241 allocs/op",
	} {
		if regs[i].String() != want {
			t.Fatalf("regression %d reads %q, want %q", i, regs[i], want)
		}
	}
	// B/op goes by the same rule.
	bytesBase := File{Entries: []Entry{
		{Name: "none", BytesPerOp: 0}, {Name: "small", BytesPerOp: 99},
		{Name: "big", BytesPerOp: 6_458_922}, {Name: "less", BytesPerOp: 13_228},
	}}
	bytesFresh := func(none, small, big int64) File {
		return File{Entries: []Entry{
			{Name: "none", BytesPerOp: none}, {Name: "small", BytesPerOp: small},
			{Name: "big", BytesPerOp: big}, {Name: "less", BytesPerOp: 8_500},
		}}
	}
	if regs := Compare(bytesBase, bytesFresh(0, 99, 6_458_922+64_589), 10); len(regs) != 0 {
		t.Fatalf("B/op within the gate reported: %v", regs)
	}
	regs = Compare(bytesBase, bytesFresh(12, 100, 6_458_922+64_590), 10)
	if len(regs) != 3 {
		t.Fatalf("want none, small and big over the gate, got %v", regs)
	}
	for i, want := range []string{
		"none: 0 B/op -> 12 B/op",
		"small: 99 B/op -> 100 B/op",
		"big: 6458922 B/op -> 6523512 B/op",
	} {
		if regs[i].String() != want {
			t.Fatalf("regression %d reads %q, want %q", i, regs[i], want)
		}
	}
	// Slower, allocating more often and allocating more are three findings
	// on one benchmark.
	all := Compare(File{Entries: []Entry{{Name: "X", NsPerOp: 100, AllocsPerOp: 1, BytesPerOp: 16}}},
		File{Entries: []Entry{{Name: "X", NsPerOp: 200, AllocsPerOp: 2, BytesPerOp: 32}}}, 0.10)
	if len(all) != 3 || all[0].Ratio != 2 || all[1].NewAllocs != 2 || all[2].NewBytes != 32 {
		t.Fatalf("want a time, an allocs and a bytes regression, got %v", all)
	}
}

func writeRaw(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
