package core

import (
	"fmt"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

// Traces that sit on a threshold of the paper, and just either side of
// it. Each case builds three jobs whose threshold quantity is exactly at
// the threshold (step 0) or a small relative ε below (-1) and above (+1),
// chosen so the quantity is exact in float64: only a trace exactly at the
// threshold tells `<` from `<=`.
//
//	case              quantity                     rule (PAPER.md §1)
//	dominance         min dominant / max rest      > 2×          chunk set dominates
//	steady            CV of chunk volumes          < 25 %        steady
//	high density      mean metadata rate           >= 50 req/s   high density
//	insignificant     metadata ops / ranks         < 1           insignificant load
//	busy              op duration / period         >= 25 %       high busy time
//	significance      bytes read                   >= 100 MiB    significant
//	high spike        requests in one second       >= 250        high spike
//	spike             requests in one second       >= 50         a spike (5 make multiple)
//	minute            mean segment duration        >= 60 s       minute magnitude
//	hour              mean segment duration        >= 3600 s     hour magnitude
//	runtime gap       gap between operations       <= 0.1 % runtime     merged
//	neighbor gap      gap between operations       <= 1 % op duration   merged

// chunkJob builds a read-only trace of runtime 1000 s (four 250 s
// chunks) with one 8 s read inside each chunk carrying that chunk's
// volume, so the chunk volumes are exactly the bytes given. The reads'
// inter-arrival times differ by more than the Mean Shift bandwidth, so
// no periodic group forms.
func chunkJob(volumes [4]int64) *darshan.Job {
	j := &darshan.Job{JobID: 1, User: "u", Exe: "/bin/edge", NProcs: 4, Runtime: 1000, End: 1000}
	for i, start := range [4]float64{20, 300, 700, 790} {
		j.Records = append(j.Records, darshan.FileRecord{
			Module: darshan.ModPOSIX,
			Path:   fmt.Sprintf("/in%d", i),
			C:      darshan.Counters{Reads: 1, BytesRead: volumes[i], ReadStart: start, ReadEnd: start + 8},
		})
	}
	return j
}

// burstJob builds a trace with no data I/O whose metadata requests come
// in one-second bursts: counts[i] opens at second 10+20i.
func burstJob(nprocs int32, counts []int64) *darshan.Job {
	j := &darshan.Job{JobID: 2, User: "u", Exe: "/bin/edge", NProcs: nprocs, Runtime: 100, End: 100}
	for i, n := range counts {
		t := float64(10 + 20*i)
		j.Records = append(j.Records, darshan.FileRecord{
			Module: darshan.ModPOSIX,
			Path:   fmt.Sprintf("/m%d", i),
			C:      darshan.Counters{Opens: n, OpenStart: t, OpenEnd: t},
		})
	}
	return j
}

// periodicJob builds a write-only trace of runtime 16·period with a
// 1 GiB write of the given duration every period seconds: sixteen
// identical segments, one periodic group of that period whose busy ratio
// is duration/period.
func periodicJob(period, duration float64) *darshan.Job {
	j := &darshan.Job{JobID: 3, User: "u", Exe: "/bin/edge", NProcs: 4, Runtime: 16 * period, End: int64(16 * period)}
	for i := 0; i < 16; i++ {
		start := period * float64(i)
		j.Records = append(j.Records, darshan.FileRecord{
			Module: darshan.ModPOSIX,
			Path:   fmt.Sprintf("/ckpt%d", i),
			C:      darshan.Counters{Writes: 1, BytesWritten: 1 << 30, WriteStart: start, WriteEnd: start + duration},
		})
	}
	return j
}

// gapJob builds a write-only trace of the given runtime with eight 1 GiB
// writes of dur seconds, starting at second 10 and separated by gap
// seconds: eight periodic operations unless neighbor merging fuses them
// into one.
func gapJob(runtime, dur, gap float64) *darshan.Job {
	j := &darshan.Job{JobID: 4, User: "u", Exe: "/bin/edge", NProcs: 4, Runtime: runtime, End: int64(runtime)}
	for i := 0; i < 8; i++ {
		start := 10 + float64(i)*(dur+gap)
		j.Records = append(j.Records, darshan.FileRecord{
			Module: darshan.ModPOSIX,
			Path:   fmt.Sprintf("/out%d", i),
			C:      darshan.Counters{Writes: 1, BytesWritten: 1 << 30, WriteStart: start, WriteEnd: start + dur},
		})
	}
	return j
}

func TestPaperThresholdEdges(t *testing.T) {
	const gib = 1 << 30
	cases := []struct {
		name  string
		build func(step int64) *darshan.Job
		label category.Category
		want  [3]bool // label at steps -1, 0, +1
		// flips are the labels allowed to change along with label: the
		// one the trace has instead on the other side of the threshold.
		flips []category.Category
	}{
		{
			// Chunks [B, X, X, B]: the middle pair dominates only when
			// X > 2B; below, the weak rule names the first largest chunk.
			// ε = 2^-11.
			name: "dominance",
			build: func(step int64) *darshan.Job {
				x := 2*gib + step<<20
				return chunkJob([4]int64{gib, x, x, gib})
			},
			label: category.Temporal(category.DirRead, category.AfterStartBeforeEnd),
			want:  [3]bool{false, false, true},
			flips: []category.Category{category.Temporal(category.DirRead, category.AfterStart)},
		},
		{
			// Chunks (4±d)·2^28 with d = 1 + step/64: CV = d/4, exactly
			// 0.25 at step 0. Not steady, the first chunk is the largest.
			name: "steady",
			build: func(step int64) *darshan.Job {
				hi, lo := int64(5<<28+step<<22), int64(3<<28-step<<22)
				return chunkJob([4]int64{hi, hi, lo, lo})
			},
			label: category.Temporal(category.DirRead, category.Steady),
			want:  [3]bool{true, false, false},
			flips: []category.Category{category.Temporal(category.DirRead, category.OnStart)},
		},
		{
			// Five bursts of ~1000 requests over 100 s: multiple spikes,
			// and a mean rate of (5000+step)/100 req/s.
			name: "high density",
			build: func(step int64) *darshan.Job {
				return burstJob(4, []int64{1000, 1000, 1000, 1000, 1000 + step})
			},
			label: category.MetaHighDensity,
			want:  [3]bool{false, true, true},
		},
		{
			// 300 ranks and 300+step requests in one second: from 300 on
			// the load counts, and it is a high spike.
			name: "insignificant load",
			build: func(step int64) *darshan.Job {
				return burstJob(300, []int64{300 + step})
			},
			label: category.MetaInsignificantLoad,
			want:  [3]bool{true, false, false},
			flips: []category.Category{category.MetaHighSpike},
		},
		{
			// Writes of 16+step seconds every 64 s: busy ratio 0.25 at
			// step 0.
			name: "busy",
			build: func(step int64) *darshan.Job {
				return periodicJob(64, float64(16+step))
			},
			label: category.PeriodicBusy(category.DirWrite, true),
			want:  [3]bool{false, true, true},
			flips: []category.Category{category.PeriodicBusy(category.DirWrite, false)},
		},
		{
			// Four equal chunks of 25 MiB, the last one step bytes
			// larger: 100 MiB + step in all.
			name: "significance",
			build: func(step int64) *darshan.Job {
				return chunkJob([4]int64{25 << 20, 25 << 20, 25 << 20, 25<<20 + step})
			},
			label: category.Temporal(category.DirRead, category.Insignificant),
			want:  [3]bool{true, false, false},
			flips: []category.Category{category.Temporal(category.DirRead, category.Steady)},
		},
		{
			// One burst of 250+step requests on 4 ranks: the only
			// spike, high from 250 on, and no pattern below.
			name: "high spike",
			build: func(step int64) *darshan.Job {
				return burstJob(4, []int64{250 + step})
			},
			label: category.MetaHighSpike,
			want:  [3]bool{false, true, true},
			flips: []category.Category{category.MetaInsignificantLoad},
		},
		{
			// Five bursts, the last of 50+step requests: it is the fifth
			// spike from 50 on, and five spikes are multiple spikes. The
			// mean rate, 2.5 req/s, is far from dense.
			name: "spike",
			build: func(step int64) *darshan.Job {
				return burstJob(4, []int64{50, 50, 50, 50, 50 + step})
			},
			label: category.MetaMultipleSpikes,
			want:  [3]bool{false, true, true},
			flips: []category.Category{category.MetaInsignificantLoad},
		},
		{
			// A period of 60 + step/16 s.
			name: "minute",
			build: func(step int64) *darshan.Job {
				return periodicJob(60+float64(step)/16, 8)
			},
			label: category.PeriodicMagnitude(category.DirWrite, category.MagMinute),
			want:  [3]bool{false, true, true},
			flips: []category.Category{category.PeriodicMagnitude(category.DirWrite, category.MagSecond)},
		},
		{
			// A period of 3600 + step/16 s.
			name: "hour",
			build: func(step int64) *darshan.Job {
				return periodicJob(3600+float64(step)/16, 8)
			},
			label: category.PeriodicMagnitude(category.DirWrite, category.MagHour),
			want:  [3]bool{false, true, true},
			flips: []category.Category{category.PeriodicMagnitude(category.DirWrite, category.MagMinute)},
		},
		{
			// 80 s writes 1 + step/64 s apart in a 1000 s run: the
			// gap is 0.1 % of the runtime at step 0, and far above 1 %
			// of an operation's duration. Merged, the eight writes are
			// one operation and nothing is periodic.
			name: "runtime gap",
			build: func(step int64) *darshan.Job {
				return gapJob(1000, 80, 1+float64(step)/64)
			},
			label: category.Periodic(category.DirWrite),
			want:  [3]bool{false, false, true},
			flips: []category.Category{
				category.PeriodicBusy(category.DirWrite, true),
				category.PeriodicMagnitude(category.DirWrite, category.MagMinute),
			},
		},
		{
			// 100 s writes 1 + step/64 s apart in a 900 s run: the gap
			// is 1 % of the preceding write at step 0, and above 0.1 %
			// of the runtime.
			name: "neighbor gap",
			build: func(step int64) *darshan.Job {
				return gapJob(900, 100, 1+float64(step)/64)
			},
			label: category.Periodic(category.DirWrite),
			want:  [3]bool{false, false, true},
			flips: []category.Category{
				category.PeriodicBusy(category.DirWrite, true),
				category.PeriodicMagnitude(category.DirWrite, category.MagMinute),
			},
		},
	}
	cfg := DefaultConfig()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allowed := category.NewSet(tc.label)
			for _, c := range tc.flips {
				allowed.Add(c)
			}
			var sets [3]category.Set
			for i, step := range [3]int64{-1, 0, 1} {
				res, err := Categorize(tc.build(step), cfg)
				if err != nil {
					t.Fatal(err)
				}
				sets[i] = res.Categories
				if got := res.Categories.Has(tc.label); got != tc.want[i] {
					t.Errorf("step %+d: %s = %v, want %v (labels %v)", step, tc.label, got, tc.want[i], res.Labels)
				}
			}
			for i := 1; i < 3; i++ {
				if moved := (sets[0] ^ sets[i]) &^ allowed; moved != 0 {
					t.Errorf("step %+d also moved %v (labels %v vs %v)", i-1, moved, sets[0], sets[i])
				}
			}
		})
	}
}
