package darshan

// NewInflate hands the gzip kernel, over a state of its own, to
// BenchmarkIngest/inflate in the external test package.
func NewInflate() func(dst, src []byte) ([]byte, error) {
	return new(inflater).gunzip
}
