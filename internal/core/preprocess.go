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
// application by one user, represented by the heaviest run.
type AppGroup struct {
	App      string
	User     string
	Runs     int          // number of valid executions in the group
	Heaviest *darshan.Job // the run MOSAIC analyzes
	weight   int64        // Heaviest.Weight(), summed over its records once
}

// Preprocessor is a streaming implementation of the funnel: feed every
// trace with Add, then read Groups and Stats. It never holds more than one
// job per application group, so memory stays proportional to the number
// of distinct applications, not the corpus size — this is how the
// 300 GB-of-RAM bottleneck of the paper's Python implementation is
// avoided.
type Preprocessor struct {
	stats  FunnelStats
	groups map[string]*AppGroup
}

// NewPreprocessor returns an empty funnel.
func NewPreprocessor() *Preprocessor {
	return &Preprocessor{
		stats:  FunnelStats{ByReason: make(map[string]int)},
		groups: make(map[string]*AppGroup),
	}
}

// EvictionReason is the funnel's validity rule for one trace: "" when
// the trace is valid, otherwise the FunnelStats.ByReason key it is
// evicted under. readErr, when non-nil, is the error that prevented
// decoding the trace (decode failures count as corrupted). Callers that
// analyze a single trace outside a Preprocessor (the serve worker) apply
// this same rule.
func EvictionReason(j *darshan.Job, readErr error) string {
	if readErr != nil {
		return "unreadable"
	}
	if err := darshan.Validate(j); err != nil {
		var verr *darshan.ValidationError
		if errors.As(err, &verr) {
			return verr.Kind.String()
		}
		return "invalid"
	}
	return ""
}

// Add feeds one trace into the funnel (see EvictionReason for readErr)
// and reports whether the trace was accepted as valid.
func (p *Preprocessor) Add(j *darshan.Job, readErr error) bool {
	p.stats.Total++
	if reason := EvictionReason(j, readErr); reason != "" {
		p.stats.Corrupted++
		p.stats.ByReason[reason]++
		return false
	}
	p.stats.Valid++
	key, w := j.AppKey(), j.Weight()
	g, ok := p.groups[key]
	if !ok {
		p.groups[key] = &AppGroup{App: j.AppName(), User: j.User, Runs: 1, Heaviest: j, weight: w}
		return true
	}
	g.Runs++
	if w > g.weight { // strictly: of equally heavy runs the first seen stays
		g.Heaviest, g.weight = j, w
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
