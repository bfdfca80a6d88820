package core

import (
	"errors"
	"sort"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

// Pre-processing (Section III-B1): validate every trace, evict corrupted
// ones, and deduplicate executions per (user, application), keeping only
// the heaviest (most I/O-intensive) run. On the Blue Waters corpus this
// funnel went from 462,502 traces to 24,606 retained entries (Figure 3).
// The funnel decides on a darshan.Summary — validity, key, weight — so a
// trace that loses never has to exist as a darshan.Job.

// FunnelStats summarizes the pre-processing funnel.
type FunnelStats struct {
	Total      int            `json:"total"`       // traces seen
	Corrupted  int            `json:"corrupted"`   // evicted by validation
	Valid      int            `json:"valid"`       // Total - Corrupted
	UniqueApps int            `json:"unique_apps"` // retained after deduplication
	ByReason   map[string]int `json:"by_reason"`   // eviction reason -> count
}

// CorruptedFraction returns Corrupted/Total (0 when empty).
func (s *FunnelStats) CorruptedFraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Corrupted) / float64(s.Total)
}

// UniqueFraction returns UniqueApps/Valid (0 when empty).
func (s *FunnelStats) UniqueFraction() float64 {
	if s.Valid == 0 {
		return 0
	}
	return float64(s.UniqueApps) / float64(s.Valid)
}

// AppGroup is the deduplicated unit: all valid executions of one
// application by one user, represented by the heaviest run. The group
// remembers where that run is, not its contents: Heaviest when the
// funnel was fed the caller's in-memory job (Add), Path when it was fed
// what darshan.InspectFile read of a file (AddSummary) — the engine
// materializes that file only once the whole corpus has been seen.
type AppGroup struct {
	App      string
	User     string
	Runs     int          // number of valid executions in the group
	Heaviest *darshan.Job // the run MOSAIC analyzes, when it is in memory
	Path     string       // the file the run was inspected in, if any
	Weight   int64        // the run's darshan.Summary.Weight
}

// appKey is the (user, application) deduplication key.
type appKey struct{ user, app string }

// Preprocessor is a streaming implementation of the funnel: feed every
// trace with Add or AddSummary, then read Groups and Stats. It reads a
// trace's darshan.Summary and nothing else, and holds one reference per
// application group — a path, or a job the caller already had — so its
// memory is proportional to the number of distinct applications and
// independent of trace size: this is how the 300 GB-of-RAM bottleneck of
// the paper's Python implementation is avoided.
type Preprocessor struct {
	stats  FunnelStats
	groups map[appKey]*AppGroup
}

// NewPreprocessor returns an empty funnel.
func NewPreprocessor() *Preprocessor {
	return &Preprocessor{
		stats:  FunnelStats{ByReason: make(map[string]int)},
		groups: make(map[appKey]*AppGroup),
	}
}

// EvictionReason is the funnel's validity rule for one trace: "" when
// the trace is valid, otherwise the FunnelStats.ByReason key it is
// evicted under. invalid is the trace's validation verdict
// (darshan.Summary.Invalid); readErr, when non-nil, is the error that
// prevented reading the trace (read failures count as corrupted).
// Callers that analyze a single trace outside a Preprocessor (the serve
// worker) apply this same rule.
func EvictionReason(invalid, readErr error) string {
	if readErr != nil {
		return "unreadable"
	}
	if invalid != nil {
		var verr *darshan.ValidationError
		if errors.As(invalid, &verr) {
			return verr.Kind.String()
		}
		return "invalid"
	}
	return ""
}

// Add feeds one in-memory trace into the funnel (see EvictionReason for
// readErr) and reports whether the trace was accepted as valid. A group
// it leads holds j as its Heaviest.
func (p *Preprocessor) Add(j *darshan.Job, readErr error) bool {
	var s darshan.Summary
	if readErr == nil {
		s = darshan.Summarize(j)
	}
	return p.AddSummary(s, readErr, "", j)
}

// AddSummary is Add for a trace already reduced to its summary, the
// form the engine's Decode stage produces: s is what the funnel reads,
// readErr the error that prevented reading the trace, and path and j say
// where the run is should it become the heaviest of its group (j nil for
// a file that was inspected, never decoded).
func (p *Preprocessor) AddSummary(s darshan.Summary, readErr error, path string, j *darshan.Job) bool {
	p.stats.Total++
	if reason := EvictionReason(s.Invalid, readErr); reason != "" {
		p.stats.Corrupted++
		p.stats.ByReason[reason]++
		return false
	}
	p.stats.Valid++
	key := appKey{s.User, s.App}
	g, ok := p.groups[key]
	if !ok {
		p.groups[key] = &AppGroup{App: s.App, User: s.User, Runs: 1, Heaviest: j, Path: path, Weight: s.Weight}
		return true
	}
	g.Runs++
	if s.Weight > g.Weight { // strictly: of equally heavy runs the first seen stays
		g.Heaviest, g.Path, g.Weight = j, path, s.Weight
	}
	return true
}

// Groups returns the deduplicated application groups sorted by (user,
// app) for deterministic downstream processing.
func (p *Preprocessor) Groups() []*AppGroup {
	out := make([]*AppGroup, 0, len(p.groups))
	for _, g := range p.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].User != out[j].User {
			return out[i].User < out[j].User
		}
		return out[i].App < out[j].App
	})
	return out
}

// Stats returns the funnel statistics; UniqueApps reflects the current
// group count.
func (p *Preprocessor) Stats() FunnelStats {
	s := p.stats
	s.UniqueApps = len(p.groups)
	// Copy the reason map so callers cannot mutate internal state.
	s.ByReason = make(map[string]int, len(p.stats.ByReason))
	for k, v := range p.stats.ByReason {
		s.ByReason[k] = v
	}
	return s
}

// Preprocess runs the funnel over a slice of jobs (all assumed readable).
// Convenience for tests and examples; large corpora should stream through
// a Preprocessor directly.
func Preprocess(jobs []*darshan.Job) ([]*AppGroup, FunnelStats) {
	p := NewPreprocessor()
	for _, j := range jobs {
		p.Add(j, nil)
	}
	return p.Groups(), p.Stats()
}
