package ring

import "context"

// This file exists because bench/ — the repository's benchmark, its own
// module, frozen between the PRs that are allowed to edit it — still
// times the scatter through this signature (bench/layers.go). The serve
// tier calls GatherQuery; when bench/ does too, this goes.

// ScatterQuery asks every live peer for all of its matches and returns
// one sorted list per peer that had any, plus the peers that failed.
func (c *Cluster) ScatterQuery(ctx context.Context, reqID, q string) (lists [][]string, errs map[string]error) {
	var g QueryGather
	c.GatherQuery(ctx, reqID, q, -1, QueryShard{}, &g)
	return g.Pages, g.Errs
}
