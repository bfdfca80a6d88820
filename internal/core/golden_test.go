package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/gen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenSeed fixes the one trace drawn per archetype.
const goldenSeed = 17

// goldenArchetypes is every default archetype plus the two DXT
// checkpointers, so the extended-tracing path is pinned as well.
func goldenArchetypes() []gen.Archetype {
	return append(gen.DefaultArchetypes(), gen.DXTCheckpointerArchetype(false), gen.DXTCheckpointerArchetype(true))
}

// archetypeJob builds the trace an archetype draws from a fresh rng.
func archetypeJob(arch gen.Archetype, seed int64) *darshan.Job {
	rng := rand.New(rand.NewSource(seed))
	p := arch.Params(rng)
	b := gen.NewBuilder(rng, "golden", arch.Exe, uint64(seed), p.Ranks, p.RuntimeBase)
	arch.Build(b, p)
	return b.Job()
}

func indented(t *testing.T, v any) []byte {
	t.Helper()
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestGoldenArchetypes holds the result and explanation JSON of one fixed
// trace per archetype, with DXT segments honoured and ignored, to the
// bytes under testdata/golden. The files change only through -update.
func TestGoldenArchetypes(t *testing.T) {
	for _, arch := range goldenArchetypes() {
		for _, disable := range []bool{false, true} {
			mode := "dxt_on"
			if disable {
				mode = "dxt_off"
			}
			t.Run(arch.Name+"/"+mode, func(t *testing.T) {
				j := archetypeJob(arch, goldenSeed)
				if err := darshan.Validate(j); err != nil {
					t.Fatalf("golden trace does not validate: %v", err)
				}
				cfg := core.DefaultConfig()
				cfg.DisableDXT = disable
				res, exp, err := core.CategorizeExplained(j, cfg, explain.Options{})
				if err != nil {
					t.Fatal(err)
				}
				plain, err := core.Categorize(j, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := map[string][]byte{
					"result.json":      indented(t, res),
					"explanation.json": indented(t, exp),
				}
				if !bytes.Equal(indented(t, plain), got["result.json"]) {
					t.Fatal("plain and explained results differ")
				}
				dir := filepath.Join("testdata", "golden", arch.Name, mode)
				for name, body := range got {
					path := filepath.Join(dir, name)
					if *updateGolden {
						if err := os.MkdirAll(dir, 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, body, 0o644); err != nil {
							t.Fatal(err)
						}
						continue
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("%v (run go test ./internal/core -run TestGoldenArchetypes -update)", err)
					}
					if !bytes.Equal(body, want) {
						t.Errorf("%s differs from the golden file", path)
					}
				}
			})
		}
	}
}
