package core

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/segment"
)

// A categorizer written from PAPER.md §1, steps 2–5, and from nothing
// else of this package: the paper's constants are spelled out here, every
// step allocates what it needs, and sorting is sort.Slice on plain
// comparisons. It is the oracle Categorize is held to
// (reference_agree_test.go).
//
// Where this implementation decides something the paper's text does not
// say, or says otherwise, the decision is a departure: a named bit the
// reference can switch on. refCategorize(j, 0) is the paper taken
// literally; refCategorize(j, depAll) must be Categorize, value for
// value. Each departure is a row of refDivergences, which names the
// DESIGN §5 decision behind it.

// The paper's constants (PAPER.md §1), and scikit-learn's MeanShift
// defaults (300 iterations, a tolerance of bandwidth/1000).
const (
	refRuntimeGap, refNeighborGap = 0.001, 0.01 // neighbor merge: 0.1 % of the runtime, 1 % of the merged op
	refChunks, refDominance       = 4, 2.0
	refSteadyCV, refSignificant   = 0.25, 100 << 20 // 100 MB, as Darshan counts megabytes
	refHighSpike, refSpike        = 250.0, 50.0
	refManySpikes, refDensity     = 5, 50.0
	refMinGroupSize, refBusyHigh  = 2, 0.25 // "any cluster of size > 1"; busy time split at 25 %
	refMaxIter, refTolPerWidth    = 300, 1e-3
	refMaxBins                    = 1 << 21
)

// The paper leaves the Mean Shift feature space and bandwidth unset
// ("set empirically"); the reference takes them from DefaultConfig.
var refFeatures = DefaultConfig()

// refDep is a set of departures from the paper's text.
type refDep uint16

const (
	depClip            refDep = 1 << iota // operations are clipped to [0, runtime)
	depMergeAtEqual                       // a gap equal to a merge threshold is negligible
	depWeakDominance                      // no dominant chunk set: the largest chunk decides
	depBothEnds                           // a dominant set holding both ends: the heavier end names it
	depSignificantOnly                    // periodicity runs on significant directions only
	depModeMerge                          // modes within h/2 merge in seed order; a point keeps its seed's mode
	depCoverage                           // a group spans at least half the runtime
	depStatRequests                       // STAT requests count, at the open
	depRankGate                           // fewer requests than ranks ends the metadata axis
	depNoPattern                          // traffic that crosses no threshold is insignificant_load
	depCoalesce                           // past 2^21 seconds, one-second bins coalesce
	depAll             = 1<<iota - 1
)

// refNoTemporality marks a direction the paper's text gives no
// temporality label.
const refNoTemporality category.TemporalKind = 255

type refOp struct {
	start, end float64
	bytes      int64
}

// refCategorize categorizes a validated, DXT-free job under the given
// departures, into the same Result shape Categorize fills (Spatial, a
// DXT-only extension, stays empty).
func refCategorize(j *darshan.Job, dep refDep) *Result {
	res := &Result{JobID: j.JobID, App: j.AppName(), User: j.User, NProcs: j.NProcs, Runtime: j.Runtime}
	if len(j.Metadata) > 0 {
		res.Truth = j.Metadata
	}
	res.Categories = refDirection(j, category.DirRead, &res.Read, dep) | refDirection(j, category.DirWrite, &res.Write, dep)
	res.Meta = refMetadata(j, dep, &res.Categories)
	res.Labels = res.Categories.Strings()
	return res
}

// refOperations reads one direction's operation out of every file record
// that moved data that way.
func refOperations(j *darshan.Job, dir category.Direction) []refOp {
	var ops []refOp
	for _, r := range j.Records {
		c := r.C
		if dir == category.DirRead && (c.Reads > 0 || c.BytesRead > 0) {
			ops = append(ops, refOp{c.ReadStart, c.ReadEnd, c.BytesRead})
		}
		if dir == category.DirWrite && (c.Writes > 0 || c.BytesWritten > 0) {
			ops = append(ops, refOp{c.WriteStart, c.WriteEnd, c.BytesWritten})
		}
	}
	return ops
}

func refDirection(j *darshan.Job, dir category.Direction, rep *DirectionReport, dep refDep) category.Set {
	var cats category.Set
	ops := refOperations(j, dir)
	rep.RawOps = len(ops)
	if dep&depClip != 0 {
		var kept []refOp
		for _, op := range ops {
			if op.end > 0 && op.start < j.Runtime {
				kept = append(kept, refOp{max(op.start, 0), min(op.end, j.Runtime), op.bytes})
			}
		}
		ops = kept
	}
	merged := refMerge(ops, j.Runtime, dep)
	rep.MergedOps = len(merged)
	for _, op := range merged {
		rep.TotalBytes = refAdd(rep.TotalBytes, op.bytes)
		rep.BusyTime += op.end - op.start
	}

	// Step 4: temporality over 4 equal chunks of the execution.
	rep.Chunks = refChunkVolumes(merged, j.Runtime)
	rep.Temporal = refTemporality(rep.Chunks, rep.TotalBytes, dep)
	if rep.Temporal != refNoTemporality {
		rep.TemporalS = rep.Temporal.String()
		cats.Add(category.Temporal(dir, rep.Temporal))
	}

	// Step 3: periodicity.
	if len(merged) == 0 || (dep&depSignificantOnly != 0 && rep.Temporal == category.Insignificant) {
		return cats
	}
	rep.Groups = refPeriodicGroups(merged, j.Runtime, dep)
	if len(rep.Groups) > 0 {
		cats.Add(category.Periodic(dir))
	}
	for _, g := range rep.Groups {
		if g.Magnitude != category.MagNone {
			cats.Add(category.PeriodicMagnitude(dir, g.Magnitude))
		}
		cats.Add(category.PeriodicBusy(dir, g.BusyRatio >= refBusyHigh))
	}
	return cats
}

// refAdd adds two non-negative volumes; a sum past the int64 range is
// the largest volume it holds.
func refAdd(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxInt64
}

// refMerge is step 2: (a) fuse overlapping operations, then (b) fuse
// neighbors closer than 0.1 % of the runtime or 1 % of the merged
// operation's duration.
func refMerge(ops []refOp, runtime float64, dep refDep) []refOp {
	ops = append([]refOp(nil), ops...)
	sort.Slice(ops, func(a, b int) bool {
		if ops[a].start != ops[b].start {
			return ops[a].start < ops[b].start
		}
		return ops[a].end < ops[b].end
	})
	fuse := func(a, b refOp) refOp {
		return refOp{min(a.start, b.start), max(a.end, b.end), refAdd(a.bytes, b.bytes)}
	}
	var overlapped []refOp
	for _, op := range ops {
		if n := len(overlapped); n > 0 && op.start < overlapped[n-1].end && overlapped[n-1].start < op.end {
			overlapped[n-1] = fuse(overlapped[n-1], op)
			continue
		}
		overlapped = append(overlapped, op)
	}
	var out []refOp
	for _, op := range overlapped {
		if n := len(out); n > 0 {
			cur := out[n-1]
			gap := max(op.start-cur.end, 0)
			a, b := refRuntimeGap*runtime, refNeighborGap*(cur.end-cur.start)
			if gap < a || gap < b || (dep&depMergeAtEqual != 0 && (gap == a || gap == b)) {
				out[n-1] = fuse(cur, op)
				continue
			}
		}
		out = append(out, op)
	}
	return out
}

// refChunkVolumes spreads each operation's bytes over the chunks it
// overlaps at its own rate; an instantaneous operation lands in the chunk
// of its start.
func refChunkVolumes(ops []refOp, runtime float64) []float64 {
	vol := make([]float64, refChunks)
	w := runtime / refChunks
	for _, op := range ops {
		if op.end-op.start <= 0 {
			c := int(op.start / w)
			vol[min(max(c, 0), refChunks-1)] += float64(op.bytes)
			continue
		}
		rate := float64(op.bytes) / (op.end - op.start)
		for c := 0; c < refChunks; c++ {
			if overlap := min(op.end, float64(c+1)*w) - max(op.start, float64(c)*w); overlap > 0 {
				vol[c] += rate * overlap
			}
		}
	}
	return vol
}

func refTemporality(vol []float64, total int64, dep refDep) category.TemporalKind {
	if total < refSignificant {
		return category.Insignificant
	}
	var mean, sq float64
	for _, v := range vol {
		mean += v / refChunks
	}
	for _, v := range vol {
		sq += (v - mean) * (v - mean) / refChunks
	}
	if cv := math.Sqrt(sq) / mean; cv < refSteadyCV || (mean == 0 && sq == 0) {
		return category.Steady
	}
	// The smallest set of chunks each holding more than 2× every other
	// (a set is a bit mask of chunk indices).
	best := 0
	for set := 1; set < 1<<refChunks-1; set++ {
		ok := true
		for a := 0; a < refChunks; a++ {
			for b := 0; b < refChunks; b++ {
				ok = ok && !(set&(1<<a) != 0 && set&(1<<b) == 0 && !(vol[a] > refDominance*vol[b]))
			}
		}
		if ok && (best == 0 || bits.OnesCount(uint(set)) < bits.OnesCount(uint(best))) {
			best = set
		}
	}
	if best == 0 {
		if dep&depWeakDominance == 0 {
			return refNoTemporality
		}
		top := 0
		for c, v := range vol {
			if v > vol[top] {
				top = c
			}
		}
		best = 1 << top
	}
	// An end chunk alone is on_start or on_end; the interior chunks name
	// after_start (second chunk), before_end (third) or both, unless the
	// end next to them is in the set too.
	first, second, third, last := best&1 != 0, best&2 != 0, best&4 != 0, best&8 != 0
	switch {
	case first && last:
		if dep&depBothEnds == 0 {
			return refNoTemporality
		}
		if vol[refChunks-1] > vol[0] {
			return category.OnEnd
		}
		return category.OnStart
	case second && third:
		return category.AfterStartBeforeEnd
	case second && first:
		return category.OnStart
	case second:
		return category.AfterStart
	case third && last:
		return category.OnEnd
	case third:
		return category.BeforeEnd
	case first:
		return category.OnStart
	}
	return category.OnEnd
}

// refPeriodicGroups is step 3: a segment runs from one operation's start
// to the next one's (the last to the end of the run); segments cluster
// on (duration, bytes) with a flat Mean Shift; every cluster of more than
// one segment is a periodic operation.
func refPeriodicGroups(ops []refOp, runtime float64, dep refDep) []segment.Group {
	type seg struct {
		op  refOp
		dur float64
	}
	segs := make([]seg, len(ops))
	pts := make([][2]float64, len(ops))
	rt := runtime
	if rt <= 0 {
		rt = 1
	}
	for i, op := range ops {
		end := runtime
		if i+1 < len(ops) {
			end = ops[i+1].start
		}
		segs[i] = seg{op, max(end-op.start, 0)}
		pts[i] = [2]float64{segs[i].dur / rt, math.Log2(1+float64(op.bytes)) / refFeatures.VolumeLogScale}
	}
	labels := refMeanShift(pts, refFeatures.MeanShiftBandwidth, dep&depModeMerge != 0)
	var order []int // cluster labels by their first segment
	members := map[int][]int{}
	for i, l := range labels {
		if members[l] == nil {
			order = append(order, l)
		}
		members[l] = append(members[l], i)
	}
	var groups []segment.Group
	for _, l := range order {
		m := members[l]
		if len(m) < refMinGroupSize {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		var dur, bytes, busy float64
		for _, i := range m {
			lo, hi = min(lo, segs[i].op.start), max(hi, segs[i].op.start+segs[i].dur)
			dur += segs[i].dur
			bytes += float64(segs[i].op.bytes)
			if segs[i].dur > 0 {
				busy += (segs[i].op.end - segs[i].op.start) / segs[i].dur
			}
		}
		if dep&depCoverage != 0 && runtime > 0 && max(hi-lo, 0)/runtime < 0.5 {
			continue
		}
		n := float64(len(m))
		groups = append(groups, segment.Group{
			Count: len(m), Period: dur / n, Magnitude: refMagnitude(dur / n),
			MeanBytes: bytes / n, BusyRatio: busy / n, Segments: m,
		})
	}
	return groups
}

func refMagnitude(p float64) category.PeriodMagnitude {
	switch {
	case !(p > 0):
		return category.MagNone
	case p < 60:
		return category.MagSecond
	case p < 3600:
		return category.MagMinute
	case p < 86400:
		return category.MagHour
	}
	return category.MagDayOrMore
}

// refMeanShift is scikit-learn's flat-kernel MeanShift with every point
// a seed, in O(n²) per round: each seed moves to the mean of the points
// within h until it moves less than h/1000; modes are taken by
// decreasing intensity, each suppressing the modes within h of it; a
// point joins its nearest surviving mode. Under depModeMerge, modes
// within h/2 of a running-average center merge in seed order instead and
// a point joins its own seed's cluster.
func refMeanShift(pts [][2]float64, h float64, modeMerge bool) []int {
	d2 := func(a, b [2]float64) float64 { return (a[0]-b[0])*(a[0]-b[0]) + (a[1]-b[1])*(a[1]-b[1]) }
	tol := refTolPerWidth * h
	modes := make([][2]float64, len(pts))
	intensity := make([]int, len(pts))
	for i, x := range pts {
		for it := 0; it < refMaxIter; it++ {
			var sum [2]float64
			n := 0
			for _, p := range pts {
				if d2(x, p) <= h*h {
					sum[0], sum[1], n = sum[0]+p[0], sum[1]+p[1], n+1
				}
			}
			inv := 1 / float64(n)
			next := [2]float64{sum[0] * inv, sum[1] * inv}
			moved := d2(x, next)
			x, intensity[i] = next, n
			if moved < tol*tol {
				break
			}
		}
		modes[i] = x
	}
	labels := make([]int, len(pts))
	if modeMerge {
		var centers [][2]float64
		var weights []float64
		for i, m := range modes {
			labels[i] = slices.IndexFunc(centers, func(c [2]float64) bool { return d2(m, c) <= (h/2)*(h/2) })
			if labels[i] < 0 {
				centers, weights, labels[i] = append(centers, m), append(weights, 0), len(centers)
			} else {
				c, w := labels[i], weights[labels[i]]
				centers[c] = [2]float64{(centers[c][0]*w + m[0]) / (w + 1), (centers[c][1]*w + m[1]) / (w + 1)}
			}
			weights[labels[i]]++
		}
		return labels
	}
	byIntensity := make([]int, len(pts))
	for i := range byIntensity {
		byIntensity[i] = i
	}
	sort.SliceStable(byIntensity, func(a, b int) bool {
		ma, mb := modes[byIntensity[a]], modes[byIntensity[b]]
		if ia, ib := intensity[byIntensity[a]], intensity[byIntensity[b]]; ia != ib {
			return ia > ib
		}
		if ma[0] != mb[0] {
			return ma[0] > mb[0]
		}
		return ma[1] > mb[1]
	})
	var centers [][2]float64
	for _, i := range byIntensity {
		if !slices.ContainsFunc(centers, func(c [2]float64) bool { return d2(modes[i], c) <= h*h }) {
			centers = append(centers, modes[i])
		}
	}
	for i, p := range pts {
		for c := range centers {
			if d2(p, centers[c]) < d2(p, centers[labels[i]]) {
				labels[i] = c
			}
		}
	}
	return labels
}

// refMetadata is step 5: requests per one-second bin over the run.
func refMetadata(j *darshan.Job, dep refDep, cats *category.Set) MetaReport {
	var events []darshan.MetaEvent
	var rep MetaReport
	for _, r := range j.Records {
		atOpen := r.C.Opens + r.C.Seeks
		if dep&depStatRequests != 0 {
			atOpen += r.C.Stats
		}
		events = append(events, darshan.MetaEvent{Time: r.C.OpenStart, Count: atOpen}, darshan.MetaEvent{Time: r.C.CloseStart, Count: r.C.Closes})
		rep.TotalOps += atOpen + r.C.Closes
	}
	few := rep.TotalOps < int64(j.NProcs)
	if few {
		cats.Add(category.MetaInsignificantLoad)
		if dep&depRankGate != 0 {
			return rep
		}
	}
	n := max(int(math.Ceil(j.Runtime)), 1)
	secondsPerBin := 1.0
	if dep&depCoalesce != 0 && n > refMaxBins {
		secondsPerBin, n = float64(n)/float64(refMaxBins), refMaxBins
	}
	bins := make([]float64, n)
	for _, ev := range events {
		if ev.Count > 0 {
			bins[min(max(int(ev.Time/secondsPerBin), 0), n-1)] += float64(ev.Count)
		}
	}
	var total float64
	for _, b := range bins {
		rate := b
		if secondsPerBin != 1 {
			rate /= secondsPerBin
		}
		total += rate
		rep.PeakRate = max(rep.PeakRate, rate)
		if rate >= refSpike {
			rep.SpikeCount++
		}
		if rate >= refHighSpike {
			rep.HighSpikes++
		}
	}
	if j.Runtime > 0 {
		rep.MeanRate = total / j.Runtime
	}
	pattern := rep.HighSpikes >= 1 || rep.SpikeCount >= refManySpikes
	if rep.HighSpikes >= 1 {
		cats.Add(category.MetaHighSpike)
	}
	if rep.SpikeCount >= refManySpikes {
		cats.Add(category.MetaMultipleSpikes)
		if rep.MeanRate >= refDensity {
			cats.Add(category.MetaHighDensity)
		}
	}
	if !pattern && !few && dep&depNoPattern != 0 {
		cats.Add(category.MetaInsignificantLoad)
	}
	return rep
}
