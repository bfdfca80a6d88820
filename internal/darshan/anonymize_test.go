package darshan

import (
	"strings"
	"testing"
)

func TestAnonymizerStability(t *testing.T) {
	a := NewAnonymizer("salt-1")
	if a.User("alice") != a.User("alice") {
		t.Fatal("pseudonyms not stable")
	}
	if a.User("alice") == a.User("bob") {
		t.Fatal("distinct users collided")
	}
	b := NewAnonymizer("salt-2")
	if a.User("alice") == b.User("alice") {
		t.Fatal("different salts must give different pseudonyms")
	}
}

func TestAnonymizerDomainSeparation(t *testing.T) {
	a := NewAnonymizer("s")
	// The same raw value in different roles must not produce linkable
	// tokens.
	if a.token("user", "x") == a.token("path", "x") {
		t.Fatal("kind domains collided")
	}
}

func TestAnonymizePathKeepsMount(t *testing.T) {
	a := NewAnonymizer("s")
	p := a.Path("/scratch/alice/data/input.dat")
	if !strings.HasPrefix(p, "/scratch/") {
		t.Fatalf("mount point lost: %q", p)
	}
	if strings.Contains(p, "alice") || strings.Contains(p, "input") {
		t.Fatalf("identifying parts leaked: %q", p)
	}
	if a.Path("relative") == "" {
		t.Fatal("degenerate path")
	}
}

func TestAnonymizeExeStripsArguments(t *testing.T) {
	a := NewAnonymizer("s")
	p1 := a.Exe("/apps/bin/lammps -in secret_input.lmp")
	p2 := a.Exe("/apps/bin/lammps -in other_input.lmp")
	if p1 != p2 {
		t.Fatal("argument stripping failed: same binary should map to same pseudonym")
	}
	if strings.Contains(p1, "lammps") {
		t.Fatalf("binary name leaked: %q", p1)
	}
}

func TestAnonymizeJobPreservesCategorizationInputs(t *testing.T) {
	j := sampleJob()
	origRead := j.TotalBytesRead()
	origMeta := j.TotalMetaOps()
	origIntervals := j.WriteIntervals()

	a := NewAnonymizer("s")
	a.Job(j)

	if j.User == "alice" || strings.Contains(j.Exe, "lammps") {
		t.Fatal("identity not anonymized")
	}
	if j.Metadata != nil {
		t.Fatal("metadata must be dropped")
	}
	for _, r := range j.Records {
		if strings.Contains(r.Path, "in.dat") || strings.Contains(r.Path, "out.dat") {
			t.Fatalf("path leaked: %q", r.Path)
		}
	}
	if j.TotalBytesRead() != origRead || j.TotalMetaOps() != origMeta {
		t.Fatal("counters changed")
	}
	got := j.WriteIntervals()
	if len(got) != len(origIntervals) || got[0] != origIntervals[0] {
		t.Fatal("intervals changed")
	}
	if err := Validate(j); err != nil {
		t.Fatalf("anonymized job invalid: %v", err)
	}
}

func TestAnonymizeDedupStillWorks(t *testing.T) {
	// Two runs of the same (user, app) must share the funnel's key after
	// anonymization; runs of another app must not.
	key := func(j *Job) [2]string { s := Summarize(j); return [2]string{s.User, s.App} }
	a := NewAnonymizer("s")
	j1, j2, j3 := sampleJob(), sampleJob(), sampleJob()
	j2.JobID = 2
	j3.Exe = "/apps/bin/other"
	a.Corpus([]*Job{j1, j2, j3})
	if key(j1) != key(j2) {
		t.Fatal("same app diverged under anonymization")
	}
	if key(j1) == key(j3) {
		t.Fatal("distinct apps collided under anonymization")
	}
}
