package serve

import (
	"bytes"
	"errors"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// decodeBlob parses one trace blob, sniffing the format: MOSD magic →
// binary codec, leading '{' → JSON, otherwise darshan-parser text. A
// decode that yields no file records is rejected — the text parser is
// deliberately lenient about unknown lines, so this is what
// distinguishes a trace from arbitrary text. canonical reports that
// data is byte for byte the job's canonical encoding
// (darshan.DecodeCanonical); only a binary blob can be.
func decodeBlob(data []byte) (j *darshan.Job, canonical bool, err error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	switch {
	case len(data) >= 4 && bytes.Equal(data[:4], darshan.Magic[:]):
		j = new(darshan.Job)
		canonical, err = darshan.DecodeCanonical(j, data)
	case len(trimmed) > 0 && trimmed[0] == '{':
		j, err = darshan.ReadJSON(bytes.NewReader(data))
	default:
		j, err = darshan.ReadParserText(bytes.NewReader(data))
	}
	if err != nil {
		return nil, false, err
	}
	if len(j.Records) == 0 {
		return nil, false, errors.New("trace holds no file records")
	}
	return j, canonical, nil
}

// decodeUpload decodes one uploaded trace and content-addresses it: id
// is what store.TraceKey gives the decoded job, blob the canonical
// encoding to persist under it. An upload that already is that encoding
// — raw-body current-version MOSD, what darshan.MarshalBinary writes —
// is its own blob (aliasing data) and one hash of it is the ID; every
// other accepted encoding (gzip .mosd, JSON, darshan-parser text, old
// versions, unsorted metadata) is re-encoded by store.TraceKey. Either
// way this is the blob's one SHA-256 pass: the write path hands the ID
// on to the store's keyed put.
func decodeUpload(data []byte) (job *darshan.Job, id store.TraceID, blob []byte, err error) {
	job, canonical, err := decodeBlob(data)
	if err != nil {
		return nil, "", nil, err
	}
	if canonical {
		return job, store.HashBytes(data), data, nil
	}
	id, blob, err = store.TraceKey(job)
	if err != nil {
		return nil, "", nil, err
	}
	return job, id, blob, nil
}
