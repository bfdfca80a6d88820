package mosaic

import "github.com/mosaic-hpc/mosaic/internal/ring"

// Cluster subsystem, re-exported: the consistent-hash routing table and
// static membership of a sharded, replicated serve tier (see
// internal/ring and the serve package's cluster mode).
type (
	// ClusterNode is one member of a cluster's static membership.
	ClusterNode = ring.Node
	// ClusterTable is the deterministic consistent-hash routing table.
	ClusterTable = ring.Table
	// ClusterConfig configures one node of a clustered serve tier.
	ClusterConfig = ring.Config
)

// NewClusterTable builds the routing table for a membership. vnodes and
// rf fall back to ring defaults when <= 0.
func NewClusterTable(nodes []ClusterNode, vnodes, rf int) (*ClusterTable, error) {
	return ring.NewTable(nodes, vnodes, rf)
}
