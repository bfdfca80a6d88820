package ring

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// scatter sends op to every peer and calls each once per peer, with the
// peer's place in ring order and its reply. A peer believed up is asked
// on its own goroutine under one RPC timeout and each runs there, beside
// the other peers'; a peer already down is not asked and each gets
// errPeerDown. scatter returns once every call to each has.
func (c *Cluster) scatter(ctx context.Context, op byte, name, reqID string, body []byte, each func(i int, pid string, resp []byte, err error)) {
	var wg sync.WaitGroup
	for i, pid := range c.order {
		p := c.peers[pid]
		if !p.up.Load() {
			each(i, pid, nil, errPeerDown)
			continue
		}
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
			defer cancel()
			resp, err := c.callPeer(cctx, p, op, name, reqID, body)
			each(i, p.node.ID, resp, err)
		}(i, p)
	}
	wg.Wait()
}

// ScatterStats collects every peer's NodeStats (down or failed peers
// appear with Up=false), in ring order.
func (c *Cluster) ScatterStats(ctx context.Context, reqID string) []NodeStats {
	out := make([]NodeStats, len(c.order))
	c.scatter(ctx, OpStats, "stats", reqID, nil, func(i int, pid string, resp []byte, err error) {
		var ns NodeStats
		if err == nil && json.Unmarshal(resp, &ns) == nil {
			ns.Up = true
			out[i] = ns
			return
		}
		out[i] = NodeStats{Node: pid}
	})
	return out
}

// ---- the scatter query ----
//
// A query's answer is a count and a page, and with RF ≥ 2 every match is
// held by more than one node. Shipping every node's matches to one place
// to deduplicate them costs the corpus per query; what is shipped here
// is a page and a handful of numbers. Every copy of one trace sits on
// the nodes of one replica list, and the routing table numbers those
// lists (Table.Class), so each node counts its matches per class and the
// entry node, for each class, takes the largest count any answering node
// gave: the count of a node that holds every match of the class anyone
// holds. There is such a node at rest, when all hold the same; while
// results are in flight, because the list's first live node takes every
// write of the class and indexes a trace before it pushes the result on;
// and with that node gone, in whoever stands in for it. Only two holders
// that each lack something of the other's — a restarted node still owed
// hints while it takes new writes — make the class read low, by the
// smaller of what the two lack (QueryGather.Skewed counts such classes).
// The IDs need no such care: the first limit IDs of a union are among
// the first limit of each part, so each node sends its first limit and
// the entry node merges.
//
// Wire, little-endian. Request: [u64 table version][i32 limit][q], limit
// < 0 for every match. Reply: [u8 flags, 0][u16 C'] then C' × [u16 class]
// [u32 count], classes ascending and only those with matches, then the
// page as a blob list of IDs to the end of the body.

const (
	queryRequestHead = 8 + 4
	queryReplyHead   = 1 + 2
	queryClassEntry  = 2 + 4
)

func appendQueryRequest(dst []byte, version uint64, limit int, q string) []byte {
	if limit < 0 || limit > math.MaxInt32 {
		limit = -1 // a page that long is every match
	}
	dst = binary.LittleEndian.AppendUint64(dst, version)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(limit)))
	return append(dst, q...)
}

// parseQueryRequest reads an OpQuery body. A body too short to hold the
// head is an error, never a value.
func parseQueryRequest(body []byte) (version uint64, limit int, q string, err error) {
	if len(body) < queryRequestHead {
		return 0, 0, "", fmt.Errorf("ring: query request of %d bytes, the head alone is %d", len(body), queryRequestHead)
	}
	version = binary.LittleEndian.Uint64(body)
	limit = int(int32(binary.LittleEndian.Uint32(body[8:])))
	return version, limit, string(body[queryRequestHead:]), nil
}

// appendQueryReply encodes one node's answer: its matches per class and
// its page.
func appendQueryReply(dst []byte, byClass []int, ids []string) []byte {
	n, held := queryReplyHead, 0
	for _, k := range byClass {
		if k > 0 {
			held++
		}
	}
	n += held * queryClassEntry
	for _, id := range ids {
		n += 4 + len(id)
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, 0)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(held))
	for class, k := range byClass {
		if k > 0 {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(class))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(min(k, math.MaxInt32)))
		}
	}
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(id)))
		dst = append(dst, id...)
	}
	return dst
}

// queryReply is a parsed OpQuery reply: two validated spans of the body
// it was parsed from, which it aliases.
type queryReply struct {
	counts []byte // C' class entries
	page   []byte // a blob list of ids IDs
	ids    int
}

// parseQueryReply checks an OpQuery reply against what was asked —
// classes is the asking node's Table.Classes, limit the page it asked
// for — and allocates nothing: a peer's bytes size no buffer until the
// whole reply has been walked. Anything out of place is an error and no
// value: a truncated or overrunning field, a flag this build does not
// know, a class the table does not have or that is out of order, a count
// of none or of more than an index holds, a page longer than the limit.
func parseQueryReply(body []byte, classes, limit int) (queryReply, error) {
	if len(body) < queryReplyHead {
		return queryReply{}, fmt.Errorf("ring: query reply of %d bytes, the head alone is %d", len(body), queryReplyHead)
	}
	if body[0] != 0 {
		return queryReply{}, fmt.Errorf("ring: query reply with unknown flags %#x", body[0])
	}
	held := int(binary.LittleEndian.Uint16(body[1:]))
	rest := body[queryReplyHead:]
	if len(rest) < held*queryClassEntry {
		return queryReply{}, fmt.Errorf("ring: query reply names %d classes in %d bytes", held, len(rest))
	}
	r := queryReply{counts: rest[:held*queryClassEntry], page: rest[held*queryClassEntry:]}
	for i, last := 0, -1; i < len(r.counts); i += queryClassEntry {
		class := int(binary.LittleEndian.Uint16(r.counts[i:]))
		if class <= last || class >= classes {
			return queryReply{}, fmt.Errorf("ring: query reply counts class %d after %d; the table has %d", class, last, classes)
		}
		if k := binary.LittleEndian.Uint32(r.counts[i+2:]); k == 0 || k > math.MaxInt32 {
			return queryReply{}, fmt.Errorf("ring: query reply counts %d matches in class %d", k, class)
		}
		last = class
	}
	for p := r.page; len(p) > 0; r.ids++ {
		if len(p) < 4 {
			return queryReply{}, fmt.Errorf("ring: query reply page: truncated length at ID %d", r.ids)
		}
		n := binary.LittleEndian.Uint32(p)
		if uint64(n) > uint64(len(p)-4) {
			return queryReply{}, fmt.Errorf("ring: query reply page: ID %d of %d bytes overruns the body", r.ids, n)
		}
		if limit >= 0 && r.ids == limit {
			return queryReply{}, fmt.Errorf("ring: query reply page holds more than the %d IDs asked for", limit)
		}
		p = p[4+n:]
	}
	return r, nil
}

// addCounts sets dst[class] for every class the reply counts.
func (r queryReply) addCounts(dst []int) {
	for i := 0; i < len(r.counts); i += queryClassEntry {
		dst[binary.LittleEndian.Uint16(r.counts[i:])] = int(binary.LittleEndian.Uint32(r.counts[i+2:]))
	}
}

// appendIDs appends the page's IDs to dst. They are substrings of one
// string, the reply's one allocation here; dst grows only if it has no
// room for them.
func (r queryReply) appendIDs(dst []string) []string {
	if r.ids == 0 {
		return dst
	}
	arena := string(r.page)
	dst = slices.Grow(dst, r.ids)
	for at := 0; at < len(arena); {
		n := int(binary.LittleEndian.Uint32(r.page[at:]))
		at += 4
		dst = append(dst, arena[at:at+n])
		at += n
	}
	return dst
}

// queryPages pools the page a node evaluates for a peer: it is encoded
// into the reply before the handler returns.
var queryPages = sync.Pool{New: func() any { return new([]string) }}

// handleQuery serves OpQuery: the local index's answer under the
// asker's limit, refused when the asker routes by another table — its
// class numbers would mean other replica lists here, and a refusal is a
// partial answer where a guess is a wrong count.
func (c *Cluster) handleQuery(ctx context.Context, f *Frame) ([]byte, error) {
	version, limit, q, err := parseQueryRequest(f.Body)
	switch {
	case err == nil && version == c.table.Version():
	case bytes.HasPrefix(f.Body, []byte(`{"q":`)):
		return nil, errors.New("ring: JSON query body: the asking node predates the binary query wire; upgrade it")
	case err != nil:
		return nil, err
	default:
		return nil, fmt.Errorf("ring: query under routing table %x; this node routes by %x", version, c.table.Version())
	}
	bufp := queryPages.Get().(*[]string)
	ids, byClass, err := c.backend.HandleQuery(ctx, (*bufp)[:0], q, limit)
	if err != nil {
		queryPages.Put(bufp)
		return nil, err
	}
	reply := appendQueryReply(nil, byClass, ids)
	clear(ids)
	*bufp = ids[:0]
	queryPages.Put(bufp)
	return reply, nil
}

// QueryShard is one node's part of a scatter query.
type QueryShard struct {
	ByClass []int    // matches per placement class (Table.Class); nil is none
	IDs     []string // the node's first matching IDs, ascending, cut at the limit
}

// QueryGather is the answer to one scatter query and the storage it was
// put together in; a caller that pools it calls Reset before it does.
type QueryGather struct {
	// Count is, summed over the placement classes, the largest count any
	// answering node gave for the class.
	Count int
	// Skewed is how many classes had answering holders that disagreed:
	// zero at rest, and the reason when a count reads low.
	Skewed int
	// Pages holds the non-empty pages, the local shard's first. The
	// first limit IDs of their sorted union are the answer's.
	Pages [][]string
	// Errs names the peers that gave no usable answer — down, failed,
	// timed out, routing by another table, or saying something this
	// build cannot parse — and why; nil when every peer answered.
	Errs map[string]error

	counts []int      // node slot × class, the local shard in slot 0
	pages  [][]string // peer's place in ring order → its page
	errs   []error    // likewise → why it has none
}

// Reset drops the IDs and errors a finished query left behind, keeping
// the storage.
func (g *QueryGather) Reset() {
	for _, p := range g.pages {
		clear(p)
	}
	clear(g.Pages)
	clear(g.errs)
	g.Pages, g.Errs = g.Pages[:0], nil
}

// GatherQuery answers q over the whole ring into g: local is this node's
// own shard, already evaluated under the same limit, and every peer
// believed up is asked for its. Which node answers for a placement class
// is decided after the replies are in, by who answered — a peer that
// fails mid-scatter costs no second round, only the flag in g.Errs.
func (c *Cluster) GatherQuery(ctx context.Context, reqID, q string, limit int, local QueryShard, g *QueryGather) {
	classes, peers := c.table.Classes(), len(c.order)
	if len(g.counts) != (1+peers)*classes { // first use
		g.counts = make([]int, (1+peers)*classes)
		g.pages, g.errs = make([][]string, peers), make([]error, peers)
	}
	clear(g.counts)
	copy(g.counts[:classes], local.ByClass)

	body := appendQueryRequest(make([]byte, 0, queryRequestHead+len(q)), c.table.Version(), limit, q)
	c.scatter(ctx, OpQuery, "query", reqID, body, func(i int, _ string, resp []byte, err error) {
		g.pages[i] = g.pages[i][:0]
		if err == nil {
			var r queryReply
			if r, err = parseQueryReply(resp, classes, limit); err == nil {
				r.addCounts(g.counts[(1+i)*classes : (2+i)*classes])
				g.pages[i] = r.appendIDs(g.pages[i])
			}
		}
		g.errs[i] = err
	})

	g.Count, g.Skewed, g.Errs = 0, 0, nil
	g.Pages = g.Pages[:0]
	if len(local.IDs) > 0 {
		g.Pages = append(g.Pages, local.IDs)
	}
	for i, err := range g.errs {
		switch {
		case err != nil:
			if g.Errs == nil {
				g.Errs = make(map[string]error)
			}
			g.Errs[c.order[i]] = err
		case len(g.pages[i]) > 0:
			g.Pages = append(g.Pages, g.pages[i])
		}
	}
	for class, holders := range c.table.holders {
		// A node that did not answer left zeros, and a node outside the
		// set counts here too: a sloppy write lands a trace on one.
		most := 0
		for slot := 0; slot <= peers; slot++ {
			most = max(most, g.counts[slot*classes+class])
		}
		g.Count += most
		for _, ni := range holders {
			slot := c.slot[ni]
			if (slot == 0 || g.errs[slot-1] == nil) && g.counts[slot*classes+class] != most {
				g.Skewed++
				break
			}
		}
	}
}
