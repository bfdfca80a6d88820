package ring

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestQueryWireGoldenBytes pins the OpQuery bodies: nodes of different
// builds must keep understanding each other, or say that they do not.
func TestQueryWireGoldenBytes(t *testing.T) {
	req := appendQueryRequest(nil, 0x0807060504030201, 100, "NOT busy")
	if want := append([]byte{1, 2, 3, 4, 5, 6, 7, 8, 100, 0, 0, 0}, "NOT busy"...); !bytes.Equal(req, want) {
		t.Fatalf("request = %v, want %v", req, want)
	}
	for _, limit := range []int{-1, -7, 1 << 40} {
		got := appendQueryRequest(nil, 0, limit, "")
		if _, back, _, err := parseQueryRequest(got); err != nil || back != -1 || !bytes.Equal(got[8:], []byte{0xff, 0xff, 0xff, 0xff}) {
			t.Fatalf("limit %d travels as %v and arrives as %d (err %v), want -1", limit, got[8:], back, err)
		}
	}
	v, limit, q, err := parseQueryRequest(req)
	if err != nil || v != 0x0807060504030201 || limit != 100 || q != "NOT busy" {
		t.Fatalf("request parses to (%x, %d, %q), err %v", v, limit, q, err)
	}

	reply := appendQueryReply(nil, []int{0, 3, 0, 70000}, []string{"ab", "", "cde"})
	want := []byte{
		0,    // flags
		2, 0, // classes counted
		1, 0, 3, 0, 0, 0, // class 1: 3
		3, 0, 0x70, 0x11, 1, 0, // class 3: 70000
		2, 0, 0, 0, 'a', 'b',
		0, 0, 0, 0,
		3, 0, 0, 0, 'c', 'd', 'e',
	}
	if !bytes.Equal(reply, want) {
		t.Fatalf("reply = %v, want %v", reply, want)
	}
	r, err := parseQueryReply(reply, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	r.addCounts(counts)
	if ids := r.appendIDs([]string{"kept"}); !slices.Equal(counts, []int{0, 3, 0, 70000}) || !slices.Equal(ids, []string{"kept", "ab", "", "cde"}) {
		t.Fatalf("reply parses to %v and %q", counts, ids)
	}
	if empty := appendQueryReply(nil, nil, nil); !bytes.Equal(empty, []byte{0, 0, 0}) {
		t.Fatalf("empty reply = %v", empty)
	}
	for name, bad := range queryReplyDamage(reply) {
		if got, err := parseQueryReply(bad, 4, 3); err == nil || got.ids != 0 || got.page != nil {
			t.Errorf("%s: accepted as %+v", name, got)
		}
	}
}

// queryReplyDamage is good, a reply to a query for three IDs under a
// table of four classes, broken in each way a decoder has to notice.
func queryReplyDamage(good []byte) map[string][]byte {
	edit := func(at int, b ...byte) []byte {
		out := bytes.Clone(good)
		copy(out[at:], b)
		return out
	}
	return map[string][]byte{
		"empty":                nil,
		"truncated head":       good[:2],
		"unknown flag":         edit(0, 0x80),
		"classes past body":    edit(1, 0xff, 0xff),
		"class beyond table":   edit(9, 4),
		"classes out of order": edit(9, 1),
		"count overflows int":  edit(11, 0xff, 0xff, 0xff, 0xff),
		"count of none":        edit(5, 0, 0, 0, 0),
		"page blob overruns":   edit(15, 200),
		"page length cut":      good[:len(good)-5],
		"page past the limit":  append(bytes.Clone(good), 0, 0, 0, 0),
		"the old JSON reply":   []byte(`{"ids":["ab","cde"]}`),
	}
}

// stubBackend answers the ring's calls from fixed values.
type stubBackend struct {
	Backend // every call a test does not expect panics on the nil interface

	mu     sync.Mutex
	pushed []string // IDs HandleResultPush saw, in order
}

func (b *stubBackend) HandleQuery(_ context.Context, dst []string, q string, limit int) ([]string, []int, error) {
	return append(dst, "id-of-"+q), []int{1}, nil
}

func (b *stubBackend) HandleResultPush(_ context.Context, id, fp string, result []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pushed = append(b.pushed, id)
	if fp == "refuse" {
		return errors.New("refused")
	}
	return nil
}

// startStubNode runs one cluster node over backend; peer, when set, is a
// second member at that address which the test serves itself.
func startStubNode(t *testing.T, backend Backend, peer string) *Cluster {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nodes := []Node{{ID: "a", Addr: l.Addr().String()}}
	if peer != "" {
		nodes = append(nodes, Node{ID: "b", Addr: peer})
	}
	c, err := NewCluster(Config{Self: "a", Nodes: nodes, Replication: 2, ProbeInterval: time.Hour, RPCTimeout: 5 * time.Second}, backend)
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(l) //nolint:errcheck
	t.Cleanup(c.Kill)
	return c
}

// TestQueryHandlerRefusesWhatItCannotCount: a node answers a query only
// under its own routing table — class numbers mean nothing under another
// — and tells a pre-binary peer what is wrong rather than misreading its
// JSON as a version and a limit.
func TestQueryHandlerRefusesWhatItCannotCount(t *testing.T) {
	c := startStubNode(t, &stubBackend{}, "")
	cl := NewClient(c.Self().Addr, time.Second)
	defer cl.Close()
	call := func(body []byte) ([]byte, error) {
		return cl.Call(context.Background(), OpQuery, "query", "r", body)
	}
	resp, err := call(appendQueryRequest(nil, c.Table().Version(), 5, "x"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := parseQueryReply(resp, c.Table().Classes(), 5)
	if err != nil || !slices.Equal(r.appendIDs(nil), []string{"id-of-x"}) {
		t.Fatalf("reply under the node's own table: %v, err %v", resp, err)
	}
	var re *RemoteError
	for name, tc := range map[string]struct {
		body []byte
		says string
	}{
		"another table": {appendQueryRequest(nil, c.Table().Version()+1, 5, "x"), "routing table"},
		"old JSON":      {[]byte(`{"q":"write_on_end OR NOT write_on_end"}`), "upgrade"},
		"short JSON":    {[]byte(`{"q":"x"}`), "upgrade"},
		"short":         {[]byte{1, 2, 3}, "head"},
		"empty":         {nil, "head"},
	} {
		if _, err := call(tc.body); !errors.As(err, &re) || !strings.Contains(re.Msg, tc.says) {
			t.Errorf("%s: %v, want a peer error saying %q", name, err, tc.says)
		}
	}
}

// TestResultPushesShareAConnection: results finishing together go to a
// peer as a few frames on the connection already open, not as a
// goroutine and a dial each — Client keeps four idle connections, and a
// worker pool finishing 64 traces used to open the other sixty for
// nothing.
func TestResultPushesShareAConnection(t *testing.T) {
	peer := NewServer(ServerOptions{})
	var (
		mu     sync.Mutex
		frames int
		got    []string
	)
	first, release := make(chan struct{}), make(chan struct{})
	peer.Handle(OpResultPush, "resultpush", func(_ context.Context, f *Frame) ([]byte, error) {
		pushes, err := parseResultPush(f.Body)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		frames++
		n := frames
		for _, p := range pushes {
			got = append(got, p.id)
		}
		mu.Unlock()
		if n == 2 { // frame 1 is the warm-up
			close(first)
			<-release
		}
		return nil, nil
	})
	addr := startTestServer(t, peer)
	c := startStubNode(t, &stubBackend{}, addr)

	pushed := func() float64 { return float64(c.Metrics().ResultPushes.Value()) }
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	c.PushResult("warm", "warm-up", "fp", []byte("record"), []string{"b"})
	waitFor("the warm-up push", func() bool { return pushed() == 1 })
	_, accepted := peer.Conns()

	// Hold the first frame at the peer until all 64 are queued: the rest
	// must fit the frames that follow it.
	var want []string
	for i := 0; i < 64; i++ {
		id := strings.Repeat("0", 62) + string(rune('a'+i/26)) + string(rune('a'+i%26))
		want = append(want, id)
		c.PushResult("req", id, "fp", []byte("record"), []string{"b"})
		if i == 0 {
			<-first
		}
	}
	close(release)
	waitFor("64 pushes", func() bool { return pushed() == 65 })
	mu.Lock()
	defer mu.Unlock()
	if frames-1 > 4 || !slices.Equal(got[1:], want) {
		t.Fatalf("64 results arrived in %d frames as %d IDs, want at most 4 frames and every ID in order", frames-1, len(got)-1)
	}
	if _, now := peer.Conns(); now != accepted {
		t.Fatalf("the peer accepted %d connections during the burst, %d before it", now, accepted)
	}
}

// TestResultPushFrameIsServedWhole: the receiving node stores every
// result of a frame, also past one its store refuses, and says so.
func TestResultPushFrameIsServedWhole(t *testing.T) {
	b := &stubBackend{}
	c := startStubNode(t, b, "")
	cl := NewClient(c.Self().Addr, time.Second)
	defer cl.Close()
	body := appendResultPush(nil, "one", "fp", nil)
	body = appendResultPush(body, "two", "refuse", nil)
	body = appendResultPush(body, "three", "fp", nil)
	_, err := cl.Call(context.Background(), OpResultPush, "resultpush", "r", body)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "refused" {
		t.Fatalf("a frame with a refused result answered %v", err)
	}
	if !slices.Equal(b.pushed, []string{"one", "two", "three"}) {
		t.Fatalf("the backend saw %q", b.pushed)
	}
}

// TestForwardPlacedToAnOlderNode: a peer that predates OpIngestPlaced
// answers it as an unknown op, and the share goes again as OpIngest —
// no placed lists, so that owner places every follower — instead of
// failing the forward.
func TestForwardPlacedToAnOlderNode(t *testing.T) {
	old := NewServer(ServerOptions{})
	var (
		mu   sync.Mutex
		seen []string // ids of each OpIngest the older node took
	)
	old.Handle(OpIngest, "ingest", func(_ context.Context, f *Frame) ([]byte, error) {
		ids, _, placed, err := splitItems(f.Body, false)
		if err != nil || placed != nil {
			return nil, fmt.Errorf("not an OpIngest body: %v", err)
		}
		mu.Lock()
		seen = append(seen, ids...)
		mu.Unlock()
		return []byte(`{"items":[{"id":"t1","status":"accepted"},{"id":"t2","status":"cached"}]}`), nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go old.Serve(l) //nolint:errcheck
	t.Cleanup(old.Kill)
	c := startStubNode(t, &stubBackend{}, l.Addr().String())

	sts, err := c.ForwardPlaced(context.Background(), "r", "b",
		[]string{"t1", "t2"}, [][]byte{[]byte("one"), []byte("two")}, [][]string{{"c"}, nil})
	if err != nil {
		t.Fatalf("forward to an older node: %v", err)
	}
	if len(sts) != 2 || sts[0].Status != "accepted" || sts[1].Status != "cached" {
		t.Fatalf("statuses %+v", sts)
	}
	if !slices.Equal(seen, []string{"t1", "t2"}) {
		t.Fatalf("the older node took %v, want the share once", seen)
	}
	if !c.Healthy("b") {
		t.Fatal("an unknown-op answer marked the older node down")
	}
}
