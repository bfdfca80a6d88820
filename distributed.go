package mosaic

import (
	"net"

	"github.com/mosaic-hpc/mosaic/internal/dist"
	"github.com/mosaic-hpc/mosaic/internal/ring"
)

// Distributed categorization, re-exported: a master streams traces to
// workers over the cluster's frame transport, the role Dispy played for
// the paper's Python implementation.
type (
	// WorkerClient is a connection to one categorization worker.
	WorkerClient = dist.Client
	// Master fans traces out over a set of workers.
	Master = dist.Master
)

// ServeWorker serves categorization requests on the listener until it is
// closed. It blocks; run it in a goroutine (or use the mosaic-worker
// binary on remote hosts).
func ServeWorker(l net.Listener) error { return dist.Serve(l) }

// ListenAndServeWorker serves on a TCP address. It blocks.
func ListenAndServeWorker(addr string) error { return dist.ListenAndServe(addr) }

// DialWorker connects to a worker.
func DialWorker(addr string) (*WorkerClient, error) { return dist.Dial(addr) }

// NewMaster wraps worker connections. The configuration a run applies is
// the one in its Options.
func NewMaster(clients []*WorkerClient) *Master { return dist.NewMaster(clients) }

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
