package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/segment"
)

// encoderBody is the encoding GET /v1/results/{id} had before results
// were stored as served — reflection, then the two-space indent pass —
// kept as the reference core.AppendResultJSON must match byte for byte.
func encoderBody(r *core.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(r)
	return buf.Bytes(), err
}

// checkResultBody appends r and compares with the encoder: the same
// bytes, or the same error and nothing appended.
func checkResultBody(t testing.TB, r *core.Result) {
	t.Helper()
	want, wantErr := encoderBody(r)
	prefix := []byte("head....")
	got, err := core.AppendResultJSON(prefix, r)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() || len(got) != len(prefix) {
			t.Fatalf("encoder fails with %q; appender: err %v, %d bytes appended", wantErr, err, len(got)-len(prefix))
		}
		return
	}
	if err != nil {
		t.Fatalf("AppendResultJSON: %v", err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("appender wrote %d bytes\n%s\nencoder %d bytes\n%s", len(got)-len(prefix), got[len(prefix):], len(want), want)
	}
}

// oddStrings need every escape encoding/json has for a string.
var oddStrings = []string{
	`quo"te`, `back\slash`, "ctl\x00\x01\x1f\n\r\t\b\f", "del\x7f", "<script>&amp;",
	"bad\xff\xfeutf8", "cut\xe2\x82", "line\u2028sep\u2029", "caf\u00e9 \u65e5\u672c", "",
}

// oddFloats sit on both sides of every switch in encoding/json's float
// rule, and at its edges.
var oddFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e20, 1e21, -1e21, 1.7e300,
	math.SmallestNonzeroFloat64, 4.9e-310, math.MaxFloat64, 1<<53 - 1, 1 << 53, 1<<53 + 2, -(1<<53 - 1), -(1 << 53),
	123456789.25, 2885121959, 6246.802871515072, 1e15, 123456789012345678,
}

func TestResultBodyMatchesEncoder(t *testing.T) {
	// Every archetype, with DXT honoured and ignored: the bytes are the
	// golden file's, which TestGoldenArchetypes holds the encoder to.
	for _, arch := range goldenArchetypes() {
		for _, disable := range []bool{false, true} {
			mode := "dxt_on"
			if disable {
				mode = "dxt_off"
			}
			cfg := core.DefaultConfig()
			cfg.DisableDXT = disable
			res, err := core.Categorize(archetypeJob(arch, goldenSeed), cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResultBody(t, res)
			golden, err := os.ReadFile(filepath.Join("testdata", "golden", arch.Name, mode, "result.json"))
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := core.AppendResultJSON(nil, res); !bytes.Equal(got, golden) {
				t.Errorf("%s/%s: appender output differs from the golden file", arch.Name, mode)
			}
		}
	}

	group := func(segs []int) segment.Group {
		return segment.Group{Count: 14, Period: 425.61874912778154, Magnitude: 2, MeanBytes: 727765735.3571428, BusyRatio: 0.09, Segments: segs}
	}
	cases := map[string]*core.Result{
		"zero":         {},
		"empty slices": {Labels: []string{}, Read: core.DirectionReport{Chunks: []float64{}, Groups: []segment.Group{}}, Truth: map[string]string{}},
		"periodic groups": {
			Labels: []string{"write_periodic", "write_periodic_minute"},
			Read:   core.DirectionReport{Groups: []segment.Group{group(nil)}},
			Write:  core.DirectionReport{Groups: []segment.Group{group([]int{0, 1, 2}), group([]int{}), group([]int{7})}, Chunks: []float64{1, 2.5, 0, 3e9}},
		},
		"spatial": {
			Read:  core.DirectionReport{Spatial: core.SpatialSequential, TemporalS: "on_start"},
			Write: core.DirectionReport{Spatial: core.SpatialPattern(9), TemporalS: "steady"},
		},
		"multi-key truth": {Truth: map[string]string{"mosaic.truth": "a,b", "b": "2", "a": "1", "": "empty key", "B": "upper"}},
		"odd strings": {
			App: oddStrings[0], User: oddStrings[4], Labels: oddStrings,
			Read:  core.DirectionReport{TemporalS: oddStrings[2]},
			Write: core.DirectionReport{TemporalS: oddStrings[5]},
			Truth: map[string]string{},
		},
		"odd floats": {
			JobID: math.MaxUint64, NProcs: math.MinInt32, Runtime: 1e-7,
			Read:  core.DirectionReport{TotalBytes: math.MinInt64, RawOps: -1, Chunks: oddFloats, BusyTime: 1e21},
			Write: core.DirectionReport{TotalBytes: math.MaxInt64, Chunks: []float64{math.Copysign(0, -1)}, BusyTime: math.SmallestNonzeroFloat64},
			Meta:  core.MetaReport{TotalOps: -5, PeakRate: 1e-6, MeanRate: 33.3, SpikeCount: 12, HighSpikes: 2},
		},
	}
	for i, s := range oddStrings {
		cases["odd strings"].Truth[s] = oddStrings[len(oddStrings)-1-i]
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases[fmt.Sprint("runtime ", f)] = &core.Result{Runtime: f}
		cases[fmt.Sprint("chunk ", f)] = &core.Result{Write: core.DirectionReport{Chunks: []float64{1, f}}}
		cases[fmt.Sprint("group ", f)] = &core.Result{Read: core.DirectionReport{Groups: []segment.Group{{Period: f}}}}
	}
	for name, r := range cases {
		t.Run(name, func(t *testing.T) { checkResultBody(t, r) })
	}
}

// TestResultBodyCoversEveryField fills a Result through reflection —
// every field of every struct under it set to something omitempty keeps —
// and holds the appender to the encoder on it: a field added to Result,
// DirectionReport, MetaReport or segment.Group shows up in the encoder's
// output and not in the appender's until someone writes it there too.
func TestResultBodyCoversEveryField(t *testing.T) {
	var r core.Result
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(v.Index(0))
			fill(v.Index(1))
		case reflect.Map:
			if v.Type().Key().Kind() != reflect.String {
				t.Fatalf("a %s under core.Result: teach AppendResultJSON and this test about it", v.Type())
			}
			v.Set(reflect.MakeMap(v.Type()))
			for _, k := range []string{"k2", "k1"} {
				elem := reflect.New(v.Type().Elem()).Elem()
				fill(elem)
				v.SetMapIndex(reflect.ValueOf(k).Convert(v.Type().Key()), elem)
			}
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", n))
		case reflect.Int, reflect.Int32, reflect.Int64:
			v.SetInt(int64(n))
		case reflect.Uint8:
			v.SetUint(uint64(1 + n%3)) // a named spatial pattern or magnitude
		case reflect.Uint64:
			v.SetUint(uint64(n))
		case reflect.Float64:
			v.SetFloat(float64(n) + 0.5)
		default:
			t.Fatalf("a %s under core.Result: teach AppendResultJSON and this test about it", v.Type())
		}
	}
	fill(reflect.ValueOf(&r).Elem())
	checkResultBody(t, &r)
	// The walk reached the leaves it is there for.
	body, _ := core.AppendResultJSON(nil, &r)
	for _, key := range []string{`"truth"`, `"periodic_groups"`, `"spatial"`, `"Segments"`, `"high_spikes"`} {
		if !bytes.Contains(body, []byte(key)) {
			t.Fatalf("filled result lacks %s:\n%s", key, body)
		}
	}
}

// FuzzResultBody: whatever a Result holds, the appender and
// encoding/json agree on every byte, or fail alike.
func FuzzResultBody(f *testing.F) {
	f.Add(uint64(17), "gromacs", "golden", "write_steady\nwrite_periodic", "mosaic.truth=a,b\nmosaic.truth.period=425.61", 6246.8, 2885121959.0, 0.09, int32(64), uint8(3), uint8(0xff))
	f.Add(uint64(0), "", "", "", "", 0.0, math.Copysign(0, -1), 1e-7, int32(-1), uint8(0), uint8(0))
	f.Add(uint64(1)<<63, oddStrings[0], oddStrings[5], strings.Join(oddStrings, "\n"), "<=&\n\xff=\u2028", 1e21, math.NaN(), math.Inf(-1), int32(1), uint8(200), uint8(0x55))
	f.Fuzz(func(t *testing.T, jobID uint64, app, user, labels, truth string, f1, f2, f3 float64, n int32, spatial, shape uint8) {
		r := &core.Result{JobID: jobID, App: app, User: user, NProcs: n, Runtime: f1}
		if labels != "" {
			r.Labels = strings.Split(labels, "\n")
		} else if shape&1 != 0 {
			r.Labels = []string{}
		}
		if truth != "" || shape&2 != 0 {
			r.Truth = map[string]string{}
			for _, kv := range strings.Split(truth, "\n") {
				k, v, _ := strings.Cut(kv, "=")
				r.Truth[k] = v
			}
		}
		segs := [][]int{nil, {}, {int(n)}, {0, 1, int(jobID % 1000)}}[shape>>2&3]
		r.Read = core.DirectionReport{
			TotalBytes: int64(jobID), RawOps: int(n), TemporalS: user, BusyTime: f3,
			Chunks: [][]float64{nil, {}, {f2}, {f1, f2, f3, float64(n)}}[shape>>4&3], Spatial: core.SpatialPattern(spatial),
		}
		r.Write = core.DirectionReport{TemporalS: app, MergedOps: -int(n), Chunks: []float64{f3}, BusyTime: f2}
		for i := 0; i < int(shape>>6); i++ {
			r.Write.Groups = append(r.Write.Groups, segment.Group{Count: i, Period: f2, Magnitude: 1, MeanBytes: f3, BusyRatio: f1, Segments: segs})
		}
		r.Meta = core.MetaReport{TotalOps: int64(n), PeakRate: f2, MeanRate: f3, SpikeCount: int(shape), HighSpikes: int(spatial)}
		checkResultBody(t, r)
	})
}
