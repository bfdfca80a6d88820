package category

// A category set as one machine word. Bit i stands for All()[i]; the
// closed set has 32 members, so bits 32–62 are unassigned. The store
// writes this word at the head of every result record and the index is
// rebuilt from it, which freezes the assignment: All() may grow at its
// end, into the unassigned bits, but never reorder or drop an entry
// (TestMaskBitsAreFrozen spells the order out).

// MaskOpen marks a label list that holds something outside All(): the
// other bits still stand for the members of All() among the labels, and
// whoever needs the rest reads the list itself.
const MaskOpen uint64 = 1 << 63

// maskBit maps a label of the closed set to its bit number.
var maskBit = func() map[string]uint8 {
	all := All()
	m := make(map[string]uint8, len(all))
	for i, c := range all {
		m[string(c)] = uint8(i)
	}
	return m
}()

// Mask packs labels into their mask.
func Mask(labels []string) uint64 {
	var m uint64
	for _, l := range labels {
		if bit, ok := maskBit[l]; ok {
			m |= 1 << bit
		} else {
			m |= MaskOpen
		}
	}
	return m
}
