package mosaic_test

import (
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds vets and tests bench/, the repository benchmark.
// It is a module of its own (replace => ../), so `go test ./...` from the
// root never compiles it, and a change to an internal package it calls
// would otherwise surface only when the benchmark is next run.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module")
	}
	for _, args := range [][]string{
		{"-C", "bench", "vet", "./..."},
		{"-C", "bench", "test", "./..."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
