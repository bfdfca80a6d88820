package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunEachExperimentSmall(t *testing.T) {
	// Exercise every experiment selector at a tiny scale; "all" is the
	// union and covered implicitly.
	for _, exp := range []string{"fig3", "table2", "table3", "fig4", "fig5", "accuracy", "stability", "perf", "dxt", "ablation"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run(exp, 80, 1, 2, 32, "", ""); err != nil {
				t.Fatalf("experiment %s: %v", exp, err)
			}
		})
	}
}

func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	if err := run("table3", 80, 1, 2, 16, dir, ""); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"export.json", "categories.csv", "jaccard.csv", "apps.csv", "heatmap.png", "metadata.png"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil || fi.Size() == 0 {
			t.Fatalf("artifact %s missing: %v", name, err)
		}
	}
}
