package category

import "testing"

// TestMaskBitsAreFrozen spells out which bit stands for which category.
// Stored result records carry these bits: a label may be appended here
// (and to All()), never moved or removed.
func TestMaskBitsAreFrozen(t *testing.T) {
	frozen := []string{
		"read_on_start", "read_on_end", "read_after_start", "read_before_end",
		"read_after_start_before_end", "read_steady", "read_insignificant",
		"read_periodic", "read_periodic_second", "read_periodic_minute", "read_periodic_hour",
		"read_periodic_day_or_more", "read_periodic_low_busy_time", "read_periodic_high_busy_time",
		"write_on_start", "write_on_end", "write_after_start", "write_before_end",
		"write_after_start_before_end", "write_steady", "write_insignificant",
		"write_periodic", "write_periodic_second", "write_periodic_minute", "write_periodic_hour",
		"write_periodic_day_or_more", "write_periodic_low_busy_time", "write_periodic_high_busy_time",
		"metadata_high_spike", "metadata_multiple_spikes", "metadata_high_density", "metadata_insignificant_load",
	}
	all := All()
	if len(all) < len(frozen) || len(all) > 63 {
		t.Fatalf("All() has %d categories; %d are frozen and a mask has 63 bits for them", len(all), len(frozen))
	}
	for i, name := range frozen {
		if string(all[i]) != name {
			t.Fatalf("All()[%d] = %q, but bit %d of every stored mask means %q", i, all[i], i, name)
		}
		if got := Mask([]string{name}); got != 1<<i {
			t.Fatalf("Mask(%q) = %#x, want bit %d", name, got, i)
		}
	}
}

func TestMask(t *testing.T) {
	if got := Mask(nil); got != 0 {
		t.Fatalf("Mask(nil) = %#x", got)
	}
	got := Mask([]string{"metadata_insignificant_load", "read_on_start", "read_on_start"})
	if want := uint64(1<<31 | 1<<0); got != want {
		t.Fatalf("mask %#x, want %#x", got, want)
	}
	// A label outside the closed set opens the mask and keeps the rest.
	got = Mask([]string{"write_on_end", "custom_label"})
	if want := MaskOpen | 1<<15; got != want {
		t.Fatalf("open mask %#x, want %#x", got, want)
	}
}
