package darshan

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Summary is what the pre-processing funnel reads of one trace — step 1
// of the paper's workflow needs nothing else: the (user, application) it
// deduplicates on, the weight it ranks the runs of an application by,
// and whether the trace is valid. There is one rule for it and three
// sources: Summarize for a job in memory, InspectBinary for an encoded
// one, InspectFile for a file of either kind.
type Summary struct {
	User    string
	App     string // Job.AppName
	Weight  int64  // Job.Weight
	Invalid error  // Validate's verdict: nil, or a *ValidationError
}

// summaryRules names the version of the rule a Summary is computed by —
// Validate, Job.Weight and Job.AppName together — and is the first byte
// of the prelude WriteBinary puts ahead of a file's body. A reader
// believes a prelude only under its own value: when any of the three
// changes what it answers for some job (as Job.Weight did when it began
// to saturate), bump it, and every file written before is walked in full
// again instead of being believed. TestSummaryRulesPinned holds a table
// of boundary jobs to their answers to say when.
const summaryRules uint8 = 1

// equal reports whether two summaries agree field for field, the verdict
// down to its kind, record index and text.
func (s Summary) equal(o Summary) bool {
	if s.User != o.User || s.App != o.App || s.Weight != o.Weight {
		return false
	}
	if s.Invalid == nil || o.Invalid == nil {
		return s.Invalid == nil && o.Invalid == nil
	}
	a, aok := s.Invalid.(*ValidationError)
	b, bok := o.Invalid.(*ValidationError)
	return aok && bok && *a == *b
}

func (s Summary) describe() string {
	if s.Invalid != nil {
		return fmt.Sprintf("%s/%s of weight %d, invalid (%v)", s.User, s.App, s.Weight, s.Invalid)
	}
	return fmt.Sprintf("%s/%s of weight %d, valid", s.User, s.App, s.Weight)
}

// Summarize is the funnel's view of a decoded job.
func Summarize(j *Job) Summary {
	if j == nil {
		return Summary{Invalid: Validate(j)}
	}
	s := headSummary(j)
	for i := range j.Records {
		s.addRecord(&j.Records[i], i, j.Runtime)
	}
	return s
}

// headSummary is the summary of a job with no records yet: its user and
// application, and validateHeader's verdict. Every summary — Summarize,
// the decoder's, the in-buffer walk's — starts here and takes the records
// in order through addRecord, so the three cannot differ.
func headSummary(j *Job) Summary {
	return Summary{User: j.User, App: j.AppName(), Invalid: validateHeader(j)}
}

// addRecord adds record i of a job of the given runtime: its weight to
// the saturating sum (Job.Weight), and its validateRecord verdict unless
// an earlier fault was found (Validate: the first fault wins).
func (s *Summary) addRecord(r *FileRecord, i int, runtime float64) {
	if s.Invalid == nil {
		s.Invalid = validateRecord(r, i, runtime)
	}
	s.Weight = addWeight(s.Weight, r.C.Weight())
}

// InspectBinary is Summarize(UnmarshalBinary(data)) without the job. It
// starts where DecodeInto does (decodeState.open), so what is unreadable
// to one is to the other, with the same error. A version-3 file answers
// from its prelude and nothing is inflated — a claim DecodeInto checks
// whenever the body is read, so the only inputs accepted here and refused
// there are version-3 files whose gzip stream is bad or whose prelude is
// not the summary of the body. Any other input is walked as WalkBinary
// walks it. A warm call allocates nothing that grows with the trace.
func InspectBinary(data []byte) (Summary, error) { return inspect(data, true) }

// WalkBinary is InspectBinary that believes no prelude: it inflates and
// walks the body through the checks DecodeInto applies, validating and
// weighing each record where it sits and keeping nothing of the trace
// except the user and executable names, and fails with
// ErrPreludeMismatch when a prelude claims anything else — exactly when
// DecodeInto fails, with the same error.
func WalkBinary(data []byte) (Summary, error) { return inspect(data, false) }

func inspect(data []byte, trust bool) (Summary, error) {
	st := decodeStatePool.Get().(*decodeState)
	defer putDecodeState(st)
	ct, err := st.open(data)
	if err != nil {
		return Summary{}, err
	}
	if trust && ct.claimed {
		return ct.claim, nil
	}
	c, err := st.body(data, &ct)
	if err != nil {
		return Summary{}, err
	}
	s := c.inspectBody()
	if err := c.end(); err != nil {
		return Summary{}, err
	}
	if err := ct.check(s); err != nil {
		return Summary{}, err
	}
	return s, nil
}

// InspectFile is Summarize(ReadFile(path)) with the job dropped. A .mosd
// file is read whole into the pooled buffers ReadFile uses — every byte
// is checksummed even when only the prelude is believed — and inspected
// there (InspectBinary); the text formats, which no large corpus is
// stored in, are decoded and summarized.
func InspectFile(path string) (Summary, error) { return inspectFile(path, InspectBinary) }

// WalkFile is InspectFile through WalkBinary.
func WalkFile(path string) (Summary, error) { return inspectFile(path, WalkBinary) }

func inspectFile(path string, binary func([]byte) (Summary, error)) (s Summary, err error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ExtJSON, ExtText:
		return ReadFileInto(new(Job), path)
	}
	f, err := os.Open(path)
	if err != nil {
		return Summary{}, err
	}
	defer f.Close()
	err = fileBytes(f, func(data []byte) (err error) {
		s, err = binary(data)
		return err
	})
	return s, err
}
