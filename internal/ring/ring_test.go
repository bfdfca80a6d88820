package ring

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// members builds an n-node membership with stable IDs.
func members(n int) []Node {
	out := make([]Node, n)
	for i := range out {
		out[i] = Node{ID: fmt.Sprintf("node-%02d", i), Addr: fmt.Sprintf("10.0.0.%d:7000", i+1)}
	}
	return out
}

// traceKeys returns k SHA-256 hex keys, the shape of real trace IDs.
func traceKeys(k int) []string {
	out := make([]string, k)
	for i := range out {
		sum := sha256.Sum256([]byte(fmt.Sprintf("trace-%d", i)))
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

func TestTableDeterministic(t *testing.T) {
	nodes := members(5)
	a, err := NewTable(nodes, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Any permutation of the membership must route identically: nodes
	// build their tables independently from config files whose entry
	// order nobody controls.
	rng := rand.New(rand.NewSource(1))
	keys := traceKeys(2000)
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]Node(nil), nodes...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b, err := NewTable(shuffled, 64, 3)
		if err != nil {
			t.Fatal(err)
		}
		if a.Version() != b.Version() {
			t.Fatalf("permuted membership changed version: %x vs %x", a.Version(), b.Version())
		}
		for _, k := range keys {
			if ao, bo := a.Owner(k).ID, b.Owner(k).ID; ao != bo {
				t.Fatalf("permuted membership moved key %s: %s vs %s", k[:8], ao, bo)
			}
			ar, br := a.Replicas(k), b.Replicas(k)
			for i := range ar {
				if ar[i].ID != br[i].ID {
					t.Fatalf("permuted membership changed replica set of %s", k[:8])
				}
			}
		}
	}
}

func TestTableVersionTracksMembership(t *testing.T) {
	base, _ := NewTable(members(4), 64, 2)
	cases := []struct {
		name  string
		nodes []Node
		v, rf int
	}{
		{"node added", members(5), 64, 2},
		{"node removed", members(3), 64, 2},
		{"vnodes changed", members(4), 32, 2},
		{"rf changed", members(4), 64, 3},
	}
	for _, c := range cases {
		tb, err := NewTable(c.nodes, c.v, c.rf)
		if err != nil {
			t.Fatal(err)
		}
		if tb.Version() == base.Version() {
			t.Errorf("%s: version unchanged", c.name)
		}
	}
	same, _ := NewTable(members(4), 64, 2)
	if same.Version() != base.Version() {
		t.Error("identical configuration produced a different version")
	}
}

func TestTableRejectsBadMembership(t *testing.T) {
	if _, err := NewTable(nil, 0, 0); err == nil {
		t.Error("empty membership accepted")
	}
	dup := []Node{{ID: "a", Addr: "x"}, {ID: "a", Addr: "y"}}
	if _, err := NewTable(dup, 0, 0); err == nil {
		t.Error("duplicate node ID accepted")
	}
}

func TestReplicasDistinctAndOwnerFirst(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 9} {
		for _, rf := range []int{1, 2, 3, 4} {
			tb, err := NewTable(members(n), 64, rf)
			if err != nil {
				t.Fatal(err)
			}
			want := min(rf, n)
			for _, k := range traceKeys(500) {
				reps := tb.Replicas(k)
				if len(reps) != want {
					t.Fatalf("n=%d rf=%d: %d replicas, want %d", n, rf, len(reps), want)
				}
				if reps[0].ID != tb.Owner(k).ID {
					t.Fatalf("n=%d rf=%d: replica[0] %s is not the owner %s", n, rf, reps[0].ID, tb.Owner(k).ID)
				}
				seen := map[string]bool{}
				for _, r := range reps {
					if seen[r.ID] {
						t.Fatalf("n=%d rf=%d: duplicate replica %s for key %s", n, rf, r.ID, k[:8])
					}
					seen[r.ID] = true
					if !tb.IsReplica(k, r.ID) {
						t.Fatalf("IsReplica(%s, %s) = false for a member of Replicas", k[:8], r.ID)
					}
				}
			}
		}
	}
}

// TestKeyMovementOnJoinLeave is the consistent-hashing contract: one
// membership change moves close to the ideal 1/N of the keyspace and
// never more than 2/N.
func TestKeyMovementOnJoinLeave(t *testing.T) {
	const keys = 20000
	ks := traceKeys(keys)
	for _, n := range []int{4, 8} {
		before, err := NewTable(members(n), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Join: members(n+1) is members(n) plus one new node.
		joined, err := NewTable(members(n+1), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, k := range ks {
			if before.Owner(k).ID != joined.Owner(k).ID {
				moved++
			}
		}
		if limit := 2 * keys / (n + 1); moved > limit {
			t.Errorf("join at n=%d moved %d/%d keys, cap %d (2/N)", n, moved, keys, limit)
		}
		if moved == 0 {
			t.Errorf("join at n=%d moved no keys — new node owns nothing", n)
		}
		// Leave: drop one existing member.
		left, err := NewTable(members(n)[:n-1], 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		moved = 0
		for _, k := range ks {
			if before.Owner(k).ID != left.Owner(k).ID {
				moved++
			}
		}
		if limit := 2 * keys / n; moved > limit {
			t.Errorf("leave at n=%d moved %d/%d keys, cap %d (2/N)", n, moved, keys, limit)
		}
	}
}

// TestOwnershipBalance checks virtual nodes spread load: no member owns
// more than 2x its fair share at the default vnode count.
func TestOwnershipBalance(t *testing.T) {
	const n, keys = 6, 30000
	tb, err := NewTable(members(n), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, k := range traceKeys(keys) {
		counts[tb.Owner(k).ID]++
	}
	for id, c := range counts {
		if c > 2*keys/n {
			t.Errorf("node %s owns %d/%d keys, over 2x fair share", id, c, keys)
		}
	}
	if len(counts) != n {
		t.Errorf("only %d/%d nodes own keys", len(counts), n)
	}
}

func TestNodeByID(t *testing.T) {
	tb, err := NewTable(members(4), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := tb.NodeByID("node-02"); !ok || n.Addr != "10.0.0.3:7000" {
		t.Errorf("NodeByID(node-02) = %+v, %v", n, ok)
	}
	if _, ok := tb.NodeByID("absent"); ok {
		t.Error("NodeByID found an absent node")
	}
}

func TestReplicationFactorCappedAtMembers(t *testing.T) {
	tb, err := NewTable(members(2), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tb.RF() != 2 {
		t.Errorf("RF = %d, want capped at 2", tb.RF())
	}
}

// TestClassIsReplicaList: a key's class names its replica list and
// nothing else — two keys share a class exactly when the same nodes hold
// them in the same order — and the table's own record of a class's
// holders, by which entry nodes judge skew, is that list.
func TestClassIsReplicaList(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for rf := 1; rf <= 3; rf++ {
			tb, err := NewTable(members(n), 32, rf)
			if err != nil {
				t.Fatal(err)
			}
			listOf := map[uint16]string{}
			classOf := map[string]uint16{}
			for _, k := range traceKeys(3000) {
				var ids []string
				for _, r := range tb.Replicas(k) {
					ids = append(ids, r.ID)
				}
				list, class := fmt.Sprint(ids), tb.Class(k)
				if int(class) >= tb.Classes() {
					t.Fatalf("n=%d rf=%d: class %d of %d", n, rf, class, tb.Classes())
				}
				if was, ok := listOf[class]; ok && was != list {
					t.Fatalf("n=%d rf=%d: class %d names both %s and %s", n, rf, class, was, list)
				}
				if was, ok := classOf[list]; ok && was != class {
					t.Fatalf("n=%d rf=%d: list %s has classes %d and %d", n, rf, list, was, class)
				}
				listOf[class], classOf[list] = list, class
			}
			for class, list := range listOf {
				var ids []string
				for _, ni := range tb.holders[class] {
					ids = append(ids, tb.nodes[ni].ID)
				}
				if got := fmt.Sprint(ids); got != list {
					t.Fatalf("n=%d rf=%d: class %d lists holders %s, its keys are held by %s", n, rf, class, got, list)
				}
			}
		}
	}
	if tb, _ := NewTable(members(3), 0, 2); tb.Classes() != 6 {
		t.Fatalf("3 nodes at RF 2: %d classes, want 6", tb.Classes())
	}
}

// TestPlacementCostsNoAllocation: placement, pushResult and FetchResult
// ask for a key's replicas once per trace.
func TestPlacementCostsNoAllocation(t *testing.T) {
	tb, err := NewTable(members(5), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	key := traceKeys(1)[0]
	if n := testing.AllocsPerRun(100, func() {
		if len(tb.Replicas(key)) != 3 || tb.Owner(key).ID == "" || !tb.IsReplica(key, tb.Owner(key).ID) || int(tb.Class(key)) >= tb.Classes() {
			t.Fatal("placement lost the key")
		}
	}); n != 0 {
		t.Fatalf("Replicas, Owner, IsReplica and Class: %v allocations per run", n)
	}
}

// TestKeyHashIsFNV1a: keyHash is written out by hand; every build of
// every node must still place a key where hash/fnv placed it.
func TestKeyHashIsFNV1a(t *testing.T) {
	for _, k := range append(traceKeys(200), "", "a") {
		h := fnv.New64a()
		h.Write([]byte(k))
		if got, want := keyHash(k), mix64(h.Sum64()); got != want {
			t.Fatalf("keyHash(%q) = %x, hash/fnv gives %x", k, got, want)
		}
	}
}
