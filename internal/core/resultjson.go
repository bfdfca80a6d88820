package core

import (
	"encoding/json"
	"reflect"
	"slices"
	"strconv"

	"github.com/mosaic-hpc/mosaic/internal/jsontext"
	"github.com/mosaic-hpc/mosaic/internal/segment"
)

// AppendResultJSON appends r as the document GET /v1/results/{id} sends:
// byte for byte what json.Encoder with SetIndent("", "  ") writes for a
// Result, trailing newline included. The store keeps a result in this
// form so that serving one is a copy; the encoder stays the oracle in
// the tests, which also walk Result by reflection and fail when it (or a
// struct under it) gains a JSON field this function does not write.
//
// One pass, no reflection: keys and indentation are literals, numbers go
// through strconv, strings through jsontext. A NaN or infinite float is
// the error encoding/json reports for it, and b comes back unextended.
func AppendResultJSON(b []byte, r *Result) ([]byte, error) {
	w := resultWriter{b: b}
	w.lit("{\n  \"job_id\": ")
	w.b = strconv.AppendUint(w.b, r.JobID, 10)
	w.lit(",\n  \"app\": ")
	w.str(r.App)
	w.lit(",\n  \"user\": ")
	w.str(r.User)
	w.lit(",\n  \"nprocs\": ")
	w.int(int64(r.NProcs))
	w.lit(",\n  \"runtime\": ")
	w.float(r.Runtime)
	w.lit(",\n  \"categories\": ")
	w.array(r.Labels == nil, len(r.Labels), "\n    ", func(i int) { w.str(r.Labels[i]) })
	w.lit(",\n  \"read\": ")
	w.direction(&r.Read)
	w.lit(",\n  \"write\": ")
	w.direction(&r.Write)
	w.lit(",\n  \"metadata\": {\n    \"total_ops\": ")
	w.int(r.Meta.TotalOps)
	w.lit(",\n    \"peak_rate\": ")
	w.float(r.Meta.PeakRate)
	w.lit(",\n    \"mean_rate\": ")
	w.float(r.Meta.MeanRate)
	w.lit(",\n    \"spike_count\": ")
	w.int(int64(r.Meta.SpikeCount))
	w.lit(",\n    \"high_spikes\": ")
	w.int(int64(r.Meta.HighSpikes))
	w.lit("\n  }")
	if len(r.Truth) > 0 {
		w.lit(",\n  \"truth\": {")
		keys := make([]string, 0, len(r.Truth))
		for k := range r.Truth {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		sep := "\n    "
		for _, k := range keys {
			w.lit(sep)
			w.str(k)
			w.lit(": ")
			w.str(r.Truth[k])
			sep = ",\n    "
		}
		w.lit("\n  }")
	}
	w.lit("\n}\n")
	if w.failed {
		return b, &json.UnsupportedValueError{
			Value: reflect.ValueOf(w.bad),
			Str:   strconv.FormatFloat(w.bad, 'g', -1, 64),
		}
	}
	return w.b, nil
}

// resultWriter is the buffer being appended to and the first float JSON
// could not carry, if any.
type resultWriter struct {
	b      []byte
	bad    float64
	failed bool
}

func (w *resultWriter) lit(s string) { w.b = append(w.b, s...) }
func (w *resultWriter) str(s string) { w.b = jsontext.AppendString(w.b, s, false) }
func (w *resultWriter) int(i int64)  { w.b = strconv.AppendInt(w.b, i, 10) }

func (w *resultWriter) float(f float64) {
	var ok bool
	if w.b, ok = jsontext.AppendFloat(w.b, f); !ok && !w.failed {
		w.bad, w.failed = f, true
	}
}

// array writes a list the way the indenting encoder lays one out: null
// for a nil slice, [] for an empty one, otherwise one element per line,
// each after indent, and the closing bracket one level (two spaces) out.
func (w *resultWriter) array(isNil bool, n int, indent string, elem func(i int)) {
	switch {
	case isNil:
		w.lit("null")
	case n == 0:
		w.lit("[]")
	default:
		w.lit("[")
		for i := 0; i < n; i++ {
			if i > 0 {
				w.lit(",")
			}
			w.lit(indent)
			elem(i)
		}
		w.lit(indent[:len(indent)-2])
		w.lit("]")
	}
}

func (w *resultWriter) direction(d *DirectionReport) {
	w.lit("{\n    \"total_bytes\": ")
	w.int(d.TotalBytes)
	w.lit(",\n    \"raw_ops\": ")
	w.int(int64(d.RawOps))
	w.lit(",\n    \"merged_ops\": ")
	w.int(int64(d.MergedOps))
	w.lit(",\n    \"chunks\": ")
	w.array(d.Chunks == nil, len(d.Chunks), "\n      ", func(i int) { w.float(d.Chunks[i]) })
	w.lit(",\n    \"temporality\": ")
	w.str(d.TemporalS)
	if len(d.Groups) > 0 {
		w.lit(",\n    \"periodic_groups\": ")
		w.array(false, len(d.Groups), "\n      ", func(i int) { w.group(&d.Groups[i]) })
	}
	w.lit(",\n    \"busy_time\": ")
	w.float(d.BusyTime)
	if d.Spatial != SpatialUnknown {
		w.lit(",\n    \"spatial\": ")
		w.str(d.Spatial.String())
	}
	w.lit("\n  }")
}

func (w *resultWriter) group(g *segment.Group) {
	w.lit("{\n        \"Count\": ")
	w.int(int64(g.Count))
	w.lit(",\n        \"Period\": ")
	w.float(g.Period)
	w.lit(",\n        \"Magnitude\": ")
	w.int(int64(g.Magnitude))
	w.lit(",\n        \"MeanBytes\": ")
	w.float(g.MeanBytes)
	w.lit(",\n        \"BusyRatio\": ")
	w.float(g.BusyRatio)
	w.lit(",\n        \"Segments\": ")
	w.array(g.Segments == nil, len(g.Segments), "\n          ", func(i int) { w.int(int64(g.Segments[i])) })
	w.lit("\n      }")
}
