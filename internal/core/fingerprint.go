package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// Fingerprint returns a short stable identifier of the *effective*
// detection configuration: the SHA-256 of a canonical field-by-field
// rendering of Config.Normalized(). Because normalization happens
// first, a zero Config, DefaultConfig(), and any config that clamps to
// the defaults all share one fingerprint — exactly the property the
// result store needs so that "same trace, same effective thresholds"
// is a cache hit regardless of how the caller spelled the config.
//
// The rendering is versioned (the "mosaic-config/v1|" prefix): if a
// field is ever added to Config it MUST be appended to fields, which
// changes every fingerprint and correctly invalidates stored results
// computed under the old semantics.
//
// Callers ask once per trace with a config that never changes between
// traces, so the last answer is remembered, keyed by the exact bits of
// the config as given.
func (c Config) Fingerprint() string {
	key := c.bits()
	if m := lastFingerprint.Load(); m != nil && m.key == key {
		return m.fp
	}
	var b strings.Builder
	b.WriteString("mosaic-config/v1|")
	c.Normalized().fields(
		func(name string, v int64) { b.WriteString(name + "=" + strconv.FormatInt(v, 10) + ";") },
		func(name string, v float64) { b.WriteString(name + "=" + strconv.FormatFloat(v, 'g', -1, 64) + ";") })
	sum := sha256.Sum256([]byte(b.String()))
	fp := fmt.Sprintf("cfg-%s", hex.EncodeToString(sum[:8]))
	lastFingerprint.Store(&fingerprintMemo{key, fp})
	return fp
}

// fields presents every field of the config, in fingerprint order.
func (c Config) fields(wi func(name string, v int64), wf func(name string, v float64)) {
	wi("significance_bytes", c.SignificanceBytes)
	wf("merge_runtime_fraction", c.MergeRuntimeFraction)
	wf("merge_neighbor_fraction", c.MergeNeighborFraction)
	wi("chunk_count", int64(c.ChunkCount))
	wf("dominance_factor", c.DominanceFactor)
	wf("steady_cv", c.SteadyCV)
	// periodicity_detector and meanshift_kernel name settings that no
	// longer exist; each is written as its one value (Mean Shift, the
	// flat kernel), so that every fingerprint stays what it was.
	wi("periodicity_detector", 0)
	wf("meanshift_bandwidth", c.MeanShiftBandwidth)
	wi("meanshift_kernel", 0)
	wi("min_group_size", int64(c.MinGroupSize))
	wf("min_group_coverage", c.MinGroupCoverage)
	wf("volume_log_scale", c.VolumeLogScale)
	wi("disable_dxt", b2i(c.DisableDXT))
	wf("spike_high_rate", c.SpikeHighRate)
	wf("spike_rate", c.SpikeRate)
	wi("multiple_spikes", int64(c.MultipleSpikes))
	wf("density_rate", c.DensityRate)
}

// configBits is a config field by field, bit for bit: unlike ==, it tells
// 0 from -0 (which render differently) and finds a NaN equal to itself.
type configBits [17]uint64

func (c Config) bits() (k configBits) {
	i := 0
	c.fields(
		func(_ string, v int64) { k[i] = uint64(v); i++ },
		func(_ string, v float64) { k[i] = math.Float64bits(v); i++ })
	return k
}

var lastFingerprint atomic.Pointer[fingerprintMemo]

type fingerprintMemo struct {
	key configBits
	fp  string
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
