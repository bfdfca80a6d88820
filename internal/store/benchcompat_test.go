package store

import (
	"slices"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/explain"
)

// TestPutExplanationIsSkipped: an explanation frame PutExplanation writes
// sits in the segment as the ones older stores hold do. A result written
// after it survives a reopen, the segment is not cut at it, and no "e/"
// key is indexed or counted.
func TestPutExplanationIsSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, cfg := testJob(30), core.DefaultConfig()
	fp := cfg.Fingerprint()
	id, _, err := s.PutTrace(j)
	if err != nil {
		t.Fatal(err)
	}
	res, expl, err := core.CategorizeExplained(j, cfg, explain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.PutExplanation(id, fp, expl); err != nil || n <= 0 {
		t.Fatalf("PutExplanation: %d bytes, %v", n, err)
	}
	if err := s.PutResult(id, fp, res); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, what string) {
		t.Helper()
		if st := s.Stats(); st.Traces != 1 || st.Results != 1 {
			t.Fatalf("%s: %d traces, %d results, want 1 and 1", what, st.Traces, st.Results)
		}
		if _, ok := s.index[explainKeyOf(id, fp)]; ok || len(s.index) != 2 {
			t.Fatalf("%s: the index holds %d keys, the explanation among them: %v", what, len(s.index), ok)
		}
	}
	check(s, "written")
	written := s.Stats().DiskBytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s, "reopened")
	if st := s.Stats(); st.DroppedTailBytes != 0 || st.DiskBytes != written || st.RecoveredFrames != 3 {
		t.Fatalf("reopened: %d of %d bytes, %d dropped, %d frames recovered, want 3", st.DiskBytes, written, st.DroppedTailBytes, st.RecoveredFrames)
	}
	got, ok, err := s.GetResult(id, fp)
	if err != nil || !ok || !slices.Equal(got.Labels, res.Labels) {
		t.Fatalf("the result after the explanation: ok=%v err=%v", ok, err)
	}
}
