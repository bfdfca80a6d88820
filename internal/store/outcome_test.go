package store

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/explain"
)

// TestOutcomeTornAtEveryByte cuts the segment at every byte inside a
// result+explanation pair written by one PutOutcomeCtx and reopens:
// recovery must find neither record, or both, or — the cut inside the
// second frame — the result alone. An explanation without its result
// would be a record the serve tier can never pair up.
func TestOutcomeTornAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(11)
	id, _, err := s.PutTrace(j)
	if err != nil {
		t.Fatal(err)
	}
	fp := core.DefaultConfig().Fingerprint()
	res, expl := testExplained(t, 11)
	// One category's evidence: the property is about the two frames, and
	// every byte of the pair costs one recovery.
	expl = expl.FilterCategory("write_on_end")
	pairStart := s.Stats().DiskBytes
	size, explErr, err := s.PutOutcomeCtx(context.Background(), id, fp, res, expl)
	if err != nil || explErr != nil || size <= 0 {
		t.Fatalf("PutOutcomeCtx: size=%d explErr=%v err=%v", size, explErr, err)
	}
	if st := s.Stats(); st.Results != 1 || st.Explanations != 1 {
		t.Fatalf("stored %d results, %d explanations, want 1 and 1", st.Results, st.Explanations)
	}
	s.Close()

	whole, err := os.ReadFile(filepath.Join(dir, "000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	cutDir := t.TempDir()
	seg := filepath.Join(cutDir, "000001.seg")
	var neither, alone, both int
	for cut := pairStart; cut <= int64(len(whole)); cut++ {
		if err := os.WriteFile(seg, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(cutDir, Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		hasRes, hasExpl := s2.HasResult(id, fp), s2.HasExplanation(id, fp)
		if !s2.HasTrace(id) {
			t.Fatalf("cut at %d: the trace before the pair was lost", cut)
		}
		if hasRes {
			if _, ok, err := s2.GetResult(id, fp); err != nil || !ok {
				t.Fatalf("cut at %d: indexed result unreadable (ok=%v err=%v)", cut, ok, err)
			}
		}
		if hasExpl {
			if _, ok, err := s2.GetExplanation(id, fp); err != nil || !ok {
				t.Fatalf("cut at %d: indexed explanation unreadable (ok=%v err=%v)", cut, ok, err)
			}
		}
		s2.Close()
		switch {
		case hasExpl && !hasRes:
			t.Fatalf("cut at %d: explanation recovered without its result", cut)
		case hasExpl:
			both++
		case hasRes:
			alone++
		default:
			neither++
		}
	}
	// Only the untouched file holds both; every cut inside the second
	// frame keeps the result; every cut inside the first keeps nothing.
	if both != 1 || alone == 0 || neither == 0 {
		t.Fatalf("cuts gave neither=%d result-alone=%d both=%d", neither, alone, both)
	}
	if int64(neither+alone+both) != int64(len(whole))-pairStart+1 {
		t.Fatalf("visited %d cuts of %d", neither+alone+both, int64(len(whole))-pairStart+1)
	}
}

// TestOutcomeOneCommit pins what the pair costs under Options.Sync: one
// fsync covering two frames, where PutResult followed by PutExplanation
// pays two.
func TestOutcomeOneCommit(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, _, err := s.PutTrace(testJob(12))
	if err != nil {
		t.Fatal(err)
	}
	fp := core.DefaultConfig().Fingerprint()
	res, expl := testExplained(t, 12)
	before := s.Stats()
	if _, _, err := s.PutOutcomeCtx(context.Background(), id, fp, res, expl); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if got := after.GroupSyncs - before.GroupSyncs; got != 1 {
		t.Fatalf("the pair cost %d fsyncs, want 1", got)
	}
	if got := after.SyncedFrames - before.SyncedFrames; got != 2 {
		t.Fatalf("that fsync covered %d frames, want 2", got)
	}
}

// TestOutcomeUnencodableExplanation: an explanation JSON cannot carry
// (NaN) is reported, and the result is still committed — alone.
func TestOutcomeUnencodableExplanation(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, _, err := s.PutTrace(testJob(13))
	if err != nil {
		t.Fatal(err)
	}
	fp := core.DefaultConfig().Fingerprint()
	res, _ := testExplained(t, 13)
	size, explErr, err := s.PutOutcomeCtx(context.Background(), id, fp, res, &explain.Explanation{Runtime: math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	if explErr == nil || size != 0 {
		t.Fatalf("unencodable explanation: size=%d explErr=%v", size, explErr)
	}
	if !s.HasResult(id, fp) || s.HasExplanation(id, fp) {
		t.Fatalf("want the result alone: result=%v explanation=%v", s.HasResult(id, fp), s.HasExplanation(id, fp))
	}
}
