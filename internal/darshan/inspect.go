package darshan

import (
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

// Summarize is the funnel's view of a decoded job.
func Summarize(j *Job) Summary {
	if j == nil {
		return Summary{Invalid: Validate(j)}
	}
	return Summary{User: j.User, App: j.AppName(), Weight: j.Weight(), Invalid: Validate(j)}
}

// InspectBinary is Summarize(UnmarshalBinary(data)) without the job: it
// inflates and walks the body through the checks DecodeInto applies, so
// it fails exactly when DecodeInto does and with the same error, but it
// validates and weighs each record where it sits and keeps nothing of
// the trace except the user and executable names. A warm call allocates
// nothing that grows with the trace.
func InspectBinary(data []byte) (Summary, error) {
	st := decodeStatePool.Get().(*decodeState)
	defer putDecodeState(st)
	c, _, err := st.open(data)
	if err != nil {
		return Summary{}, err
	}
	s := c.inspectBody()
	if err := c.end(); err != nil {
		return Summary{}, err
	}
	return s, nil
}

// InspectFile is Summarize(ReadFile(path)) with the job dropped. A .mosd
// file is read into the pooled buffers ReadFile uses and inspected there
// (InspectBinary); the text formats, which no large corpus is stored in,
// are decoded and summarized.
func InspectFile(path string) (s Summary, err error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ExtJSON, ExtText:
		j, err := ReadFile(path)
		if err != nil {
			return Summary{}, err
		}
		return Summarize(j), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return Summary{}, err
	}
	defer f.Close()
	err = fileBytes(f, func(data []byte) (err error) {
		s, err = InspectBinary(data)
		return err
	})
	return s, err
}
