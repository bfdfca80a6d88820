package darshan

import "fmt"

// NewInflate hands the gzip kernel, over a state of its own, to
// BenchmarkIngest/inflate in the external test package.
func NewInflate() func(dst, src []byte) ([]byte, error) {
	return new(inflater).gunzip
}

// BodyOffset reports where the body of an encoded trace starts — past
// the header and, in a version-3 file, the prelude — as the reader's own
// open finds it.
func BodyOffset(data []byte) (int, error) {
	ct, err := new(decodeState).open(data)
	return ct.bodyOff, err
}

// SummaryRules is the reader's summaryRules.
const SummaryRules = summaryRules

// DiffSummary says how two summaries differ ("" when they do not): the
// user, application and weight, and the validation verdict down to its
// kind, record index and text.
func DiffSummary(got, want Summary) string {
	if got.equal(want) {
		return ""
	}
	return fmt.Sprintf("(%q, %q, weight %d, invalid: %#v), want (%q, %q, weight %d, invalid: %#v)",
		got.User, got.App, got.Weight, got.Invalid, want.User, want.App, want.Weight, want.Invalid)
}
