package jsontext

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestAppendFloatMatchesEncoder holds the float rule — and its integer
// shortcut — to encoding/json over random bit patterns, integral values
// around the shortcut's 2^53 bound, and the rule's own switch points.
func TestAppendFloatMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	vals := []float64{0, math.Copysign(0, -1), 1e-6, 1e-7, 1e21, 9.999999999999999e20, 1 << 53, 1<<53 - 1, -(1 << 53), 1<<53 + 2, 1e15, 1e16, math.MaxInt64, math.MinInt64}
	for i := 0; i < 200_000; i++ {
		switch i % 4 {
		case 0:
			vals = append(vals, math.Float64frombits(rng.Uint64()))
		case 1:
			vals = append(vals, float64(rng.Int63n(1<<54)-1<<53))
		case 2:
			vals = append(vals, math.Trunc(rng.NormFloat64()*1e9))
		default:
			vals = append(vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
		}
	}
	for _, f := range vals {
		want, err := json.Marshal(f)
		got, ok := AppendFloat([]byte("x"), f)
		if ok != (err == nil) || (ok && string(got[1:]) != string(want)) || (!ok && string(got) != "x") {
			t.Fatalf("AppendFloat(%v) = %q, %v; encoding/json: %q, %v", f, got, ok, want, err)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, ok := AppendFloat(nil, f); ok || len(got) != 0 {
			t.Fatalf("AppendFloat(%v) = %q, true", f, got)
		}
	}
}

func TestAppendStringMatchesEncoder(t *testing.T) {
	for _, s := range []string{
		"", "0123456789abcdef-_.~ /:", `quo"te`, `back\slash`, "ctl\x00\x1f\n\t\b\f", "del\x7f", "<script>&amp;",
		"bad\xff\xfeutf8", "cut\xe2\x82", "line sep ", "café 日本",
	} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s, false); string(got) != string(want) {
			t.Fatalf("AppendString(%q) = %s, encoding/json: %s", s, got, want)
		}
		if Plain(s) {
			if got := AppendString(nil, s, true); string(got) != string(want) {
				t.Fatalf("AppendString(%q, plain) = %s, encoding/json: %s", s, got, want)
			}
		}
	}
	if Plain("a<b") || Plain("café") || !Plain("plain") {
		t.Fatal("Plain misjudges")
	}
}
