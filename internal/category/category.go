// Package category defines the MOSAIC category taxonomy (Table I of the
// paper): non-exclusive labels describing the I/O behaviour of a job along
// three axes — temporality, periodicity, and metadata impact.
package category

import (
	"fmt"
	"math/bits"
	"strings"
)

// Axis is one of the three classes of behaviour MOSAIC characterizes.
type Axis uint8

// Axes of the taxonomy. AxisNone is the axis of a name outside it.
const (
	AxisTemporality Axis = iota
	AxisPeriodicity
	AxisMetadata
	AxisNone
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	switch a {
	case AxisTemporality:
		return "temporality"
	case AxisPeriodicity:
		return "periodicity"
	case AxisMetadata:
		return "metadata"
	case AxisNone:
		return ""
	default:
		return fmt.Sprintf("Axis(%d)", uint8(a))
	}
}

// Direction distinguishes read and write behaviour; MOSAIC evaluates the
// two independently (Section III-A). Metadata categories carry DirNone.
type Direction uint8

// Directions.
const (
	DirNone Direction = iota
	DirRead
	DirWrite
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case DirRead:
		return "read"
	case DirWrite:
		return "write"
	case DirNone:
		return ""
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// Category is a canonical label such as "read_on_start",
// "write_periodic_minute" or "metadata_high_spike".
type Category string

// TemporalKind enumerates the temporality sub-labels.
type TemporalKind uint8

// Temporality kinds (Table I).
const (
	OnStart TemporalKind = iota
	OnEnd
	AfterStart
	BeforeEnd
	AfterStartBeforeEnd
	Steady
	Insignificant
)

// String implements fmt.Stringer.
func (k TemporalKind) String() string {
	switch k {
	case OnStart:
		return "on_start"
	case OnEnd:
		return "on_end"
	case AfterStart:
		return "after_start"
	case BeforeEnd:
		return "before_end"
	case AfterStartBeforeEnd:
		return "after_start_before_end"
	case Steady:
		return "steady"
	case Insignificant:
		return "insignificant"
	default:
		return fmt.Sprintf("TemporalKind(%d)", uint8(k))
	}
}

// TemporalKinds lists every temporality kind in declaration order.
func TemporalKinds() []TemporalKind {
	return []TemporalKind{OnStart, OnEnd, AfterStart, BeforeEnd, AfterStartBeforeEnd, Steady, Insignificant}
}

// PeriodMagnitude is the order of magnitude of a detected period.
type PeriodMagnitude uint8

// Period magnitudes (Table I).
const (
	MagNone PeriodMagnitude = iota
	MagSecond
	MagMinute
	MagHour
	MagDayOrMore
)

// String implements fmt.Stringer.
func (m PeriodMagnitude) String() string {
	switch m {
	case MagNone:
		return "none"
	case MagSecond:
		return "second"
	case MagMinute:
		return "minute"
	case MagHour:
		return "hour"
	case MagDayOrMore:
		return "day_or_more"
	default:
		return fmt.Sprintf("PeriodMagnitude(%d)", uint8(m))
	}
}

// MagnitudeOf classifies a period length in seconds into its order of
// magnitude.
func MagnitudeOf(periodSeconds float64) PeriodMagnitude {
	switch {
	case periodSeconds <= 0:
		return MagNone
	case periodSeconds < 60:
		return MagSecond
	case periodSeconds < 3600:
		return MagMinute
	case periodSeconds < 24*3600:
		return MagHour
	default:
		return MagDayOrMore
	}
}

// Metadata categories (Table I).
const (
	MetaHighSpike         Category = "metadata_high_spike"
	MetaMultipleSpikes    Category = "metadata_multiple_spikes"
	MetaHighDensity       Category = "metadata_high_density"
	MetaInsignificantLoad Category = "metadata_insignificant_load"
)

// N is the size of the closed taxonomy. A category's position in All()
// is its bit number in a Set; the store writes that word at the head of
// every result record and the index is rebuilt from it, which freezes
// the assignment: the taxonomy may grow at its end, into the unassigned
// bits [N,63), but never reorder or drop an entry (TestMaskBitsAreFrozen
// spells the order out).
const N = 32

// Closed is the whole taxonomy: every assigned bit.
const Closed Set = 1<<N - 1

// Each direction owns perDir consecutive bits, laid out alike: the seven
// temporal kinds in declaration order, the base periodic label, the four
// magnitudes from MagSecond, then low and high busy time. The metadata
// categories follow both blocks.
const (
	perDir      = 14
	offPeriodic = 7 // also where MagNone would sit: offPeriodic+m for m ≥ MagSecond
	offBusy     = 12
	metaBase    = 2 * perDir
)

// names is the taxonomy in bit order. Like byName it is a literal, so
// the package has nothing to build at init; TestTablesFollowTheirRules
// derives both from the layout above and the kinds' String methods.
var names = [N]Category{
	"read_on_start", "read_on_end", "read_after_start", "read_before_end",
	"read_after_start_before_end", "read_steady", "read_insignificant",
	"read_periodic", "read_periodic_second", "read_periodic_minute", "read_periodic_hour",
	"read_periodic_day_or_more", "read_periodic_low_busy_time", "read_periodic_high_busy_time",
	"write_on_start", "write_on_end", "write_after_start", "write_before_end",
	"write_after_start_before_end", "write_steady", "write_insignificant",
	"write_periodic", "write_periodic_second", "write_periodic_minute", "write_periodic_hour",
	"write_periodic_day_or_more", "write_periodic_low_busy_time", "write_periodic_high_busy_time",
	MetaHighSpike, MetaMultipleSpikes, MetaHighDensity, MetaInsignificantLoad,
}

// byName lists the bit numbers in order of category name, so a walk over
// it renders a set sorted with nothing left to sort, and a binary search
// over it finds a name's bit.
var byName = [N]uint8{30, 28, 31, 29, 2, 4, 3, 6, 1, 0, 7, 11, 13, 10, 12, 9, 8, 5, 16, 18, 17, 20, 15, 14, 21, 25, 27, 24, 26, 23, 22, 19}

// dirName is the name at offset off of a direction's block; a direction
// that is neither read nor write has none.
func dirName(d Direction, off int) Category {
	switch d {
	case DirRead:
		return names[off]
	case DirWrite:
		return names[perDir+off]
	}
	return ""
}

// Temporal is the temporality category for a direction,
// e.g. Temporal(DirRead, OnStart) == "read_on_start". Like the other
// constructors it returns "" for arguments that name no category.
func Temporal(d Direction, k TemporalKind) Category {
	if k > Insignificant {
		return ""
	}
	return dirName(d, int(k))
}

// Periodic is the base periodic category, e.g. "write_periodic".
func Periodic(d Direction) Category { return dirName(d, offPeriodic) }

// PeriodicMagnitude is the magnitude-qualified periodic category,
// e.g. "write_periodic_minute".
func PeriodicMagnitude(d Direction, m PeriodMagnitude) Category {
	if m < MagSecond || m > MagDayOrMore {
		return ""
	}
	return dirName(d, offPeriodic+int(m))
}

// PeriodicBusy is the busy-time periodic category. high reports whether
// the job spends a large fraction of the period doing I/O.
func PeriodicBusy(d Direction, high bool) Category {
	if high {
		return dirName(d, offBusy+1)
	}
	return dirName(d, offBusy)
}

// All returns the full closed set of categories MOSAIC can emit, in bit
// order. Useful for table headers and exhaustive tests.
func All() []Category {
	all := names
	return all[:]
}

// Set is a set of categories assigned to one trace — non-exclusive
// across axes and directions — as one machine word: bit i stands for
// All()[i]. It is the word at the head of a stored result record and the
// index's per-trace column; set algebra on it is the word's.
type Set uint64

// Open marks a set built from a label list that holds a name outside
// All(): the other bits still stand for the members of All() among the
// labels, and whoever needs the rest reads the list itself
// (core.Result.Labels, a stored record's body).
const Open Set = 1 << 63

// The bits of one direction's block, of its temporal kinds, of its
// periodic labels, and of the metadata categories.
const (
	dirBits      Set = 1<<perDir - 1
	temporalBits Set = 1<<offPeriodic - 1
	periodicBits     = dirBits &^ temporalBits
	metaBits         = Closed &^ (1<<metaBase - 1)
)

// axisSets and dirSets split the N bits by axis and by direction.
var (
	axisSets = [AxisNone]Set{
		AxisTemporality: temporalBits | temporalBits<<perDir,
		AxisPeriodicity: periodicBits | periodicBits<<perDir,
		AxisMetadata:    metaBits,
	}
	dirSets = [DirWrite + 1]Set{DirNone: metaBits, DirRead: dirBits, DirWrite: dirBits << perDir}
)

// Set returns the categories of the axis (none for AxisNone).
func (a Axis) Set() Set {
	if a >= AxisNone {
		return 0
	}
	return axisSets[a]
}

// Set returns the categories of the direction; DirNone's are the
// metadata categories.
func (d Direction) Set() Set {
	if d > DirWrite {
		return 0
	}
	return dirSets[d]
}

// Axis reports which class of behaviour the category belongs to:
// AxisNone for a name outside the taxonomy.
func (c Category) Axis() Axis {
	s := NewSet(c)
	for a, m := range axisSets {
		if s&m != 0 {
			return Axis(a)
		}
	}
	return AxisNone
}

// Direction reports the read/write direction of the category (DirNone for
// metadata categories and names outside the taxonomy).
func (c Category) Direction() Direction {
	switch s := NewSet(c); {
	case s&dirSets[DirRead] != 0:
		return DirRead
	case s&dirSets[DirWrite] != 0:
		return DirWrite
	}
	return DirNone
}

// NewSet builds a set from the given categories.
func NewSet(cs ...Category) Set {
	var s Set
	s.Add(cs...)
	return s
}

// Of packs a label list into its set.
func Of(labels []string) Set {
	var s Set
	for _, l := range labels {
		s.Add(Category(l))
	}
	return s
}

// Add inserts categories into the set; a name outside All() opens it.
func (s *Set) Add(cs ...Category) {
	for _, c := range cs {
		if bit, ok := c.Bit(); ok {
			*s |= 1 << bit
		} else {
			*s |= Open
		}
	}
}

// Bit returns the category's bit number in a Set — its position in
// All() — and false for a name outside the taxonomy: the one label→bit
// lookup.
func (c Category) Bit() (int, bool) {
	lo, hi := 0, N
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if names[byName[mid]] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < N && names[byName[lo]] == c {
		return int(byName[lo]), true
	}
	return 0, false
}

// Has reports membership. A name outside All() is in no set: an open set
// does not say which names opened it.
func (s Set) Has(c Category) bool {
	bit, ok := c.Bit()
	return ok && s>>bit&1 != 0
}

// HasAll reports whether every given category is in the set.
func (s Set) HasAll(cs ...Category) bool {
	want := NewSet(cs...)
	return want&Open == 0 && s&want == want
}

// Len returns how many members of All() the set holds.
func (s Set) Len() int { return bits.OnesCount64(uint64(s & Closed)) }

// members lists the set's members of All() by name; never nil.
func members[T ~string](s Set) []T {
	out := make([]T, 0, s.Len())
	for _, bit := range byName {
		if s>>bit&1 != 0 {
			out = append(out, T(names[bit]))
		}
	}
	return out
}

// Sorted returns the members in lexicographic order.
func (s Set) Sorted() []Category { return members[Category](s) }

// Strings returns the sorted members as plain strings (for JSON output).
func (s Set) Strings() []string { return members[string](s) }

// Equal reports whether two sets contain the same categories.
func (s Set) Equal(other Set) bool { return s == other }

// String implements fmt.Stringer.
func (s Set) String() string { return strings.Join(s.Strings(), ",") }

// ParseSet parses a comma-separated category list (inverse of String).
func ParseSet(text string) Set {
	var s Set
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			s.Add(Category(part))
		}
	}
	return s
}
