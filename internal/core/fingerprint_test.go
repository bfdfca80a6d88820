package core

import (
	"math"
	"sync"
	"testing"
)

// pinnedDefaultFingerprint is the regression pin for the effective
// default configuration. If this test fails because Config grew a
// field (and Fingerprint was correctly extended), update the pin — the
// change intentionally invalidates stored results.
const pinnedDefaultFingerprint = "cfg-440ce09f936a6682"

func TestFingerprintNormalizesFirst(t *testing.T) {
	zero := Config{}
	def := DefaultConfig()
	if got := zero.Fingerprint(); got != def.Fingerprint() {
		t.Fatalf("zero config fingerprint %s != default %s; fingerprinting must go through Normalized()", got, def.Fingerprint())
	}
	// A config that clamps back to defaults must also hash identically:
	// normalization, not raw field values, defines result identity.
	clamped := DefaultConfig()
	clamped.ChunkCount = 1       // sane() clamps to 4
	clamped.DominanceFactor = -3 // sane() clamps to 2
	if got := clamped.Fingerprint(); got != def.Fingerprint() {
		t.Fatalf("clamped config fingerprint %s != default %s", got, def.Fingerprint())
	}
}

func TestFingerprintPinned(t *testing.T) {
	if got := DefaultConfig().Fingerprint(); got != pinnedDefaultFingerprint {
		t.Fatalf("DefaultConfig().Fingerprint() = %s, want pinned %s (did Config grow a field? update the pin deliberately)", got, pinnedDefaultFingerprint)
	}
	if got := (Config{}).Fingerprint(); got != pinnedDefaultFingerprint {
		t.Fatalf("zero Config fingerprint = %s, want pinned %s", got, pinnedDefaultFingerprint)
	}
}

func TestFingerprintDistinguishesConfigs(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	b.SignificanceBytes = 1 << 20
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different significance thresholds must fingerprint differently")
	}
	c := DefaultConfig()
	c.DisableDXT = true
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("DisableDXT must participate in the fingerprint")
	}
}

// TestFingerprintMemo: the remembered answer is only ever given back for
// the config it was computed from. Configs that alternate, a zero config
// after a non-default one, two configs == cannot tell apart (0 and -0
// render differently) and concurrent callers all read what a cold
// computation gives.
func TestFingerprintMemo(t *testing.T) {
	steady := DefaultConfig()
	steady.SteadyCV = 0.3
	posZero, negZero := DefaultConfig(), DefaultConfig()
	posZero.MergeRuntimeFraction = 0
	negZero.MergeRuntimeFraction = math.Copysign(0, -1)
	configs := []Config{DefaultConfig(), steady, {}, posZero, negZero}

	cold := make([]string, len(configs))
	for i, c := range configs {
		lastFingerprint.Store(nil)
		cold[i] = c.Fingerprint()
	}
	if cold[2] != cold[0] || cold[1] == cold[0] || cold[3] == cold[4] {
		t.Fatalf("cold fingerprints: %v", cold)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				i := (round*7 + g) % len(configs)
				for rep := 0; rep < 2; rep++ { // the second call is the remembered one
					if got := configs[i].Fingerprint(); got != cold[i] {
						t.Errorf("config %d: %s, computed cold %s", i, got, cold[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
