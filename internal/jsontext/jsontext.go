// Package jsontext holds the scalar rules of the response writers that
// append JSON themselves instead of going through encoding/json (the
// /v1/query answer, the stored result body): how a string and a float64
// are written so that the bytes are exactly what json.Encoder, HTML
// escaping on, produces for the same value.
package jsontext

import (
	"encoding/json"
	"math"
	"strconv"
)

// escapes marks the bytes encoding/json does not copy through unchanged
// inside a string: controls, the quote and the backslash, the three it
// escapes for HTML (< > &), and everything non-ASCII (U+2028/9 and
// invalid UTF-8 are rewritten; the rest is left to the encoder rather
// than validated here). DEL is in the set for simplicity of the range
// test, not because it is escaped.
var escapes = func() (t [256]bool) {
	for b := range t {
		t[b] = b < 0x20 || b >= 0x7f
	}
	for _, b := range `"\<>&` {
		t[b] = true
	}
	return t
}()

// Plain reports that s between two quotes is exactly what encoding/json
// would write for it, so a writer may copy it with no per-byte work. It
// is a sufficient test, not a necessary one: it also refuses strings the
// encoder would pass through (valid non-ASCII, DEL).
func Plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if escapes[s[i]] {
			return false
		}
	}
	return true
}

// AppendString appends s as a JSON string. A string known (plain) or
// found to need no escaping is copied between two quotes; any other goes
// through encoding/json, which stays the one place that knows the escape
// sequences.
func AppendString(b []byte, s string, plain bool) []byte {
	if plain || Plain(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	enc, _ := json.Marshal(s) // a string always marshals
	return append(b, enc...)
}

// AppendFloat appends f the way encoding/json writes a float64: the
// shortest decimal that round-trips, in 'f' form unless the magnitude is
// below 1e-6 or at least 1e21, where it is 'e' form with a two-digit
// exponent cut to one (e-09 becomes e-9). ok is false, and nothing is
// appended, for the values JSON cannot carry: NaN and the infinities.
func AppendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	// Byte volumes and counts carried as floats: below 2^53 an integral
	// value's shortest round-trip decimal is its own digits, which the
	// integer formatter writes at a fraction of the cost. Zero is left to
	// the general path, which knows about -0.
	if i := int64(f); float64(i) == f && i != 0 && i > -1<<53 && i < 1<<53 {
		return strconv.AppendInt(b, i, 10), true
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}
