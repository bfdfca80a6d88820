// Package ring is MOSAIC's cluster subsystem: a deterministic
// consistent-hash ring over the content-addressed trace keys, a
// length-prefixed binary RPC transport shared by every inter-node
// operation, and a cluster manager handling replica-aware ingest,
// scatter-gather fan-out, per-peer health probing, request hedging and
// hinted-handoff replication retry.
//
// The ring is a pure function of the membership list and its tuning
// parameters: every node computes byte-identical routing from the same
// configuration, so there is no coordination service — the routing
// table is static per process lifetime and served to clients from
// GET /v1/cluster, versioned by a hash of the membership so a client
// can detect that two nodes disagree about the cluster.
//
// Trace keys are already perfect shard keys: the SHA-256 content
// address is uniformly distributed and identical on every node that
// sees the same trace, so placement needs no lookup table — owner and
// replicas fall out of hashing the key onto the ring.
package ring

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
)

// Defaults for the tunable ring parameters.
const (
	// DefaultVirtualNodes is the points-per-member default: enough that
	// one join/leave moves close to the ideal 1/N of the keyspace.
	DefaultVirtualNodes = 128
	// DefaultReplication is the default number of copies of each trace
	// (owner + followers).
	DefaultReplication = 2
)

// Node is one cluster member.
type Node struct {
	// ID names the node; membership is keyed by it and it must be
	// unique and identical across every member's configuration.
	ID string `json:"id"`
	// Addr is the node's cluster RPC address (host:port).
	Addr string `json:"addr"`
	// HTTPAddr, when known, is the node's public HTTP API address —
	// served in /v1/cluster so clients can route requests shard-side.
	HTTPAddr string `json:"http_addr,omitempty"`
}

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node int32 // index into Table.nodes
}

// Table is an immutable consistent-hash routing table: the ring's
// virtual-node points plus the membership they map back to. Methods are
// safe for concurrent use (the table never mutates after NewTable).
type Table struct {
	nodes   []Node // sorted by ID
	points  []point
	vnodes  int
	rf      int
	version uint64

	// What a key landing on each ring point gets, worked out once: point
	// i's replica list is reps[i*rf:(i+1)*rf], owner first, and class[i]
	// numbers that list among the distinct ones. Every copy of one trace
	// is held by the nodes of one class, which is what lets a scatter
	// query count per class instead of shipping IDs to deduplicate
	// (scatter.go).
	reps    []Node
	class   []uint16
	holders [][]int32 // class → indexes into nodes of its replica list, owner first
}

// NewTable builds the routing table for the given membership. vnodes
// and rf (total copies per key, owner included) fall back to the
// defaults when <= 0; rf is capped at the member count. The table is
// deterministic: any permutation of nodes yields identical routing.
func NewTable(nodes []Node, vnodes, rf int) (*Table, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("ring: empty membership")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	if rf <= 0 {
		rf = DefaultReplication
	}
	if rf > len(nodes) {
		rf = len(nodes)
	}
	sorted := append([]Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].ID == sorted[i-1].ID {
			return nil, fmt.Errorf("ring: duplicate node ID %q", sorted[i].ID)
		}
	}
	t := &Table{
		nodes:  sorted,
		points: make([]point, 0, len(sorted)*vnodes),
		vnodes: vnodes,
		rf:     rf,
	}
	for ni, n := range sorted {
		for v := 0; v < vnodes; v++ {
			t.points = append(t.points, point{hash: vnodeHash(n.ID, v), node: int32(ni)})
		}
	}
	sort.Slice(t.points, func(i, j int) bool {
		if t.points[i].hash != t.points[j].hash {
			return t.points[i].hash < t.points[j].hash
		}
		// A full 64-bit collision between two members' points is
		// astronomically unlikely; break the tie by node order so the
		// ring still sorts deterministically if it happens.
		return t.points[i].node < t.points[j].node
	})
	t.version = t.membershipHash()
	if err := t.place(); err != nil {
		return nil, err
	}
	return t, nil
}

// place fills the per-point replica lists and numbers the distinct ones
// in the order the ring's points first name them — the same order on
// every node, because the points sort the same everywhere.
func (t *Table) place() error {
	t.reps = make([]Node, 0, len(t.points)*t.rf)
	t.class = make([]uint16, len(t.points))
	byList := make(map[string]uint16)
	walk := make([]int32, 0, t.rf)
	for i := range t.points {
		walk = walk[:0]
		for j := 0; len(walk) < t.rf; j++ {
			n := t.points[(i+j)%len(t.points)].node
			if !slices.Contains(walk, n) {
				walk = append(walk, n)
				t.reps = append(t.reps, t.nodes[n])
			}
		}
		key := fmt.Sprint(walk)
		cl, ok := byList[key]
		if !ok {
			if len(t.holders) == math.MaxUint16 {
				// A query reply counts its classes in a u16.
				return fmt.Errorf("ring: membership yields more than %d distinct replica lists", math.MaxUint16)
			}
			cl = uint16(len(t.holders))
			byList[key] = cl
			t.holders = append(t.holders, slices.Clone(walk))
		}
		t.class[i] = cl
	}
	return nil
}

// membershipHash folds the membership and tuning parameters into the
// table version: nodes that disagree about the cluster produce
// different versions, which /v1/cluster exposes to clients.
func (t *Table) membershipHash() uint64 {
	h := fnv.New64a()
	for _, n := range t.nodes {
		h.Write([]byte(n.ID))
		h.Write([]byte{0})
		h.Write([]byte(n.Addr))
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "v%d r%d", t.vnodes, t.rf)
	return h.Sum64()
}

// mix64 is the splitmix64 finalizer. Raw FNV over the short, nearly
// identical "id#v" vnode strings leaves correlated low bits — enough
// that one member could own 2x its share of the ring — so every point
// hash gets a full avalanche pass.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// vnodeHash places one virtual node on the 64-bit ring.
func vnodeHash(id string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	fmt.Fprintf(h, "#%d", v)
	return mix64(h.Sum64())
}

// keyHash places a trace key on the ring. Keys are SHA-256 hex digests
// (already uniform); FNV keeps placement cheap and, unlike a seeded
// hash, identical across processes.
func keyHash(key string) uint64 {
	// FNV-1a, written out: hash/fnv's value escapes through its interface
	// and placement is asked once per trace on every write path.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return mix64(h)
}

// Version identifies the membership this table routes over.
func (t *Table) Version() uint64 { return t.version }

// RF returns the replication factor (total copies per key).
func (t *Table) RF() int { return t.rf }

// VirtualNodes returns the points-per-member count.
func (t *Table) VirtualNodes() int { return t.vnodes }

// Nodes returns the membership in ID order. The slice is shared; do
// not mutate.
func (t *Table) Nodes() []Node { return t.nodes }

// NodeByID returns the member with the given ID.
func (t *Table) NodeByID(id string) (Node, bool) {
	i := sort.Search(len(t.nodes), func(i int) bool { return t.nodes[i].ID >= id })
	if i < len(t.nodes) && t.nodes[i].ID == id {
		return t.nodes[i], true
	}
	return Node{}, false
}

// successor returns the index into points of the first point at or
// after h, wrapping at the ring's end.
func (t *Table) successor(h uint64) int {
	i := sort.Search(len(t.points), func(i int) bool { return t.points[i].hash >= h })
	if i == len(t.points) {
		return 0
	}
	return i
}

// Owner returns the node owning a key: the member whose virtual node
// first succeeds the key's hash on the ring.
func (t *Table) Owner(key string) Node {
	return t.reps[t.successor(keyHash(key))*t.rf]
}

// Replicas returns the key's replica set: RF distinct nodes walking
// the ring clockwise from the key, owner first. The slice is shared; do
// not mutate.
func (t *Table) Replicas(key string) []Node {
	i := t.successor(keyHash(key)) * t.rf
	return t.reps[i : i+t.rf : i+t.rf]
}

// IsReplica reports whether nodeID is in the key's replica set.
func (t *Table) IsReplica(key, nodeID string) bool {
	for _, n := range t.Replicas(key) {
		if n.ID == nodeID {
			return true
		}
	}
	return false
}

// Classes returns how many distinct replica lists the table places keys
// on (3 nodes at RF 2: 6). Class numbers run from 0 and mean something
// only under this table's Version.
func (t *Table) Classes() int { return len(t.holders) }

// Class returns the number of the key's replica list: two keys have the
// same class exactly when the same nodes hold them in the same order —
// the same owner, and the same stand-in for it whichever nodes are down.
// The order matters to who counts a class in full (scatter.go): the node
// that takes a key's writes indexes it before it ships the result to the
// rest, so of one list's nodes one is never behind the others, where of
// one *set*'s nodes each is ahead of the other on the keys it owns.
func (t *Table) Class(key string) uint16 {
	return t.class[t.successor(keyHash(key))]
}
