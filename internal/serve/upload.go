package serve

import (
	"bytes"
	"errors"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// errNoRecords refuses a trace without file records: the text parser is
// deliberately lenient about unknown lines, so this is what distinguishes
// a trace from arbitrary text.
var errNoRecords = errors.New("trace holds no file records")

// decodeBlob parses one trace blob, sniffing the format: MOSD magic →
// binary codec, leading '{' → JSON, otherwise darshan-parser text. A
// decode that yields no file records is rejected (errNoRecords).
func decodeBlob(data []byte) (j *darshan.Job, err error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	switch {
	case len(data) >= 4 && bytes.Equal(data[:4], darshan.Magic[:]):
		j, err = darshan.UnmarshalBinary(data)
	case len(trimmed) > 0 && trimmed[0] == '{':
		j, err = darshan.ReadJSON(bytes.NewReader(data))
	default:
		j, err = darshan.ReadParserText(bytes.NewReader(data))
	}
	if err != nil {
		return nil, err
	}
	if len(j.Records) == 0 {
		return nil, errNoRecords
	}
	return j, nil
}

// walkCanonical reports whether data is byte for byte the canonical
// encoding of a trace decodeBlob would accept, without decoding it
// (darshan.WalkCanonical). err is what decodeBlob would refuse the blob
// with, when the walk can tell; a blob that is not canonical and walks
// without error may still be unreadable, which only decodeBlob can say.
func walkCanonical(data []byte) (canonical bool, err error) {
	canonical, records, err := darshan.WalkCanonical(data)
	if canonical && records == 0 {
		return false, errNoRecords
	}
	return canonical, err
}

// decodeUpload content-addresses one uploaded trace: id is what
// store.TraceKey gives the job it decodes to, blob the canonical encoding
// to persist under it. An upload that already is that encoding — raw-body
// current-version MOSD, what darshan.MarshalBinary writes — is walked,
// not decoded, and is its own blob (aliasing data): one hash of it is the
// ID, and no job is built. Every other accepted encoding (gzip .mosd,
// JSON, darshan-parser text, old versions, unsorted metadata) is decoded
// and re-encoded by store.TraceKey. Either way this is the blob's one
// SHA-256 pass: the write path hands the ID on to the store's keyed put,
// and the worker that categorizes the trace decodes the stored copy.
func decodeUpload(data []byte) (id store.TraceID, blob []byte, err error) {
	canonical, err := walkCanonical(data)
	switch {
	case err != nil:
		return "", nil, err
	case canonical:
		return store.HashBytes(data), data, nil
	}
	job, err := decodeBlob(data)
	if err != nil {
		return "", nil, err
	}
	return store.TraceKey(job)
}
