package darshan

import "fmt"

// NewInflate hands the gzip kernel, over a state of its own, to
// BenchmarkIngest/inflate in the external test package.
func NewInflate() func(dst, src []byte) ([]byte, error) {
	return new(inflater).gunzip
}

// DiffSummary says how two summaries differ ("" when they do not): the
// user, application and weight, and the validation verdict down to its
// kind, record index and text.
func DiffSummary(got, want Summary) string {
	if got.User != want.User || got.App != want.App || got.Weight != want.Weight {
		return fmt.Sprintf("(%q, %q, weight %d), want (%q, %q, weight %d)",
			got.User, got.App, got.Weight, want.User, want.App, want.Weight)
	}
	if (got.Invalid == nil) != (want.Invalid == nil) {
		return fmt.Sprintf("invalid: %v, want %v", got.Invalid, want.Invalid)
	}
	if got.Invalid == nil {
		return ""
	}
	g, gok := got.Invalid.(*ValidationError)
	w, wok := want.Invalid.(*ValidationError)
	if !gok || !wok || *g != *w {
		return fmt.Sprintf("invalid: %#v, want %#v", got.Invalid, want.Invalid)
	}
	return ""
}

// MarshalV1 writes j as a raw-body version-1 log: the canonical encoding
// less the two DXT lists that version 2 put after every record (j must
// carry none). No production code writes version 1; files of that age
// are still read.
func MarshalV1(j *Job) ([]byte, error) {
	bare := *j
	bare.Records = nil
	prefix, err := MarshalBinary(&bare) // ends with the record count, 0
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), prefix[:len(prefix)-4]...)
	out[4], out[5] = 1, 0
	out = appendU32(out, uint32(len(j.Records)))
	for i := range j.Records {
		if j.Records[i].HasDXT() {
			return nil, fmt.Errorf("record %d carries DXT events", i)
		}
		one := bare
		one.Records = j.Records[i : i+1]
		enc, err := MarshalBinary(&one)
		if err != nil {
			return nil, err
		}
		out = append(out, enc[len(prefix):len(enc)-8]...)
	}
	return out, nil
}
