package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
)

// A result is stored as it is served. The value of a kindServed frame is
//
//	[u64 category set, little-endian][body]
//
// where the set is category.Of the result's labels (bit i =
// category.All()[i]; category.Open when a label lies outside that
// closed set and has to be read from the body) and the body is exactly
// what GET /v1/results/{id} sends: core.AppendResultJSON's bytes, the
// document json.Encoder with a two-space indent writes, newline included.
// Nothing edits a result after it is written, so a read is a lookup and a
// copy, and whoever wants only the categories — the index rebuild, a
// replica indexing a pushed result — reads eight bytes and parses
// nothing. The same bytes travel between nodes (result push, routed
// read).
//
// Stores written before this form hold results as kindResult frames, the
// compact json.Marshal document. Those stay readable: whichever reader
// meets one converts it (decodeResult, then the appender) on its way into
// the read cache. They are never written again.

// ResultHeadLen is the length of a served record's head; the response
// body is everything after it.
const ResultHeadLen = 8

// recordScratch holds the buffers served records are appended into
// before an exact-size copy is committed.
var recordScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// newResultRecord encodes res in served form.
func newResultRecord(res *core.Result) ([]byte, error) {
	bufp := recordScratch.Get().(*[]byte)
	defer recordScratch.Put(bufp)
	b := binary.LittleEndian.AppendUint64((*bufp)[:0], uint64(category.Of(res.Labels)))
	b, err := core.AppendResultJSON(b, res)
	if err != nil {
		return nil, err
	}
	*bufp = b
	return bytes.Clone(b), nil
}

// resultDocument returns the JSON document inside a result frame — a
// served record's body, or all of a legacy value — and which of the two
// it was. Any other kind, or a served value shorter than its head, is an
// error.
func resultDocument(kind byte, value []byte) (doc []byte, served bool, err error) {
	switch {
	case kind == kindResult:
		return value, false, nil
	case kind != kindServed:
		return nil, false, fmt.Errorf("store: record kind %d does not hold a result", kind)
	case len(value) < ResultHeadLen:
		return nil, false, fmt.Errorf("store: result record of %d bytes is shorter than its %d-byte head", len(value), ResultHeadLen)
	}
	return value[ResultHeadLen:], true, nil
}

// servedRecord returns a stored result value in served form: the value
// itself when its frame is kindServed, one conversion when it is the
// legacy document.
func servedRecord(kind byte, value []byte) ([]byte, error) {
	doc, served, err := resultDocument(kind, value)
	if err != nil {
		return nil, err
	}
	if served {
		return value, nil
	}
	res, err := decodeResult(doc)
	if err != nil {
		return nil, err
	}
	rec, err := newResultRecord(res)
	if err != nil {
		return nil, fmt.Errorf("store: converting legacy result: %w", err)
	}
	return rec, nil
}

// recordSet is the category set a result frame carries: the head of a
// served record, which is not parsed at all, or the set of a legacy
// document's labels.
func recordSet(kind byte, value []byte) (category.Set, error) {
	doc, served, err := resultDocument(kind, value)
	if err != nil {
		return 0, err
	}
	if served {
		return category.Set(binary.LittleEndian.Uint64(value)), nil
	}
	res, err := decodeResult(doc)
	if err != nil {
		return 0, err
	}
	return res.Categories, nil
}

// CheckResultRecord validates result bytes that came from another node
// and returns them in served form, with their category set. A served
// record must carry a body decodeResult accepts and the set of that
// body's labels — rec then aliases data; the compact document a node
// predating the served form ships is accepted wherever decodeResult
// accepts it, and converted. The two cannot be confused: a served record
// has the body's "{\n" after its head, and compact JSON holds no newline
// at all.
func CheckResultRecord(data []byte) (rec []byte, set category.Set, err error) {
	legacy := len(data) < ResultHeadLen+2 || data[ResultHeadLen] != '{' || data[ResultHeadLen+1] != '\n'
	body := data
	if !legacy {
		body = data[ResultHeadLen:]
	}
	res, err := decodeResult(body)
	if err != nil {
		return nil, 0, err
	}
	set = res.Categories
	if legacy {
		if rec, err = newResultRecord(res); err != nil {
			return nil, 0, fmt.Errorf("store: converting legacy result: %w", err)
		}
	} else if head := binary.LittleEndian.Uint64(data); head != uint64(set) {
		return nil, 0, fmt.Errorf("store: result record head %#x does not match its labels (%#x)", head, uint64(set))
	} else {
		rec = data
	}
	return rec, set, nil
}

// PutResult stores one categorization result under (trace, config
// fingerprint). Re-putting the same key appends a new frame and the
// index moves to it (last write wins, also on recovery replay).
func (s *Store) PutResult(id TraceID, fp string, res *core.Result) error {
	_, err := s.PutOutcomeCtx(context.Background(), id, fp, res)
	return err
}

// PutOutcomeCtx is PutResult under a request-trace context: one commit,
// recorded as a "store.commit" span (kind=result) on a traced ctx; under
// Options.Sync the frame rides the next fsync of its segment. It returns the record it committed, in served form (what
// GetResultBytes would read back, for a caller that ships it on without
// a read; the store may share it with its read cache, so nobody writes
// to it). A result that cannot be encoded fails the call before anything
// is written.
func (s *Store) PutOutcomeCtx(ctx context.Context, id TraceID, fp string, res *core.Result) ([]byte, error) {
	rec, err := newResultRecord(res)
	if err != nil {
		return nil, fmt.Errorf("store: encoding result %s: %w", id, err)
	}
	if err := s.putRecords(ctx, "result", record{kind: kindServed, key: resultKeyOf(id, fp), value: rec}); err != nil {
		return nil, err
	}
	return rec, nil
}

// PutResultBytesCtx stores result bytes another node produced — the
// replication path, where a follower persists the owner's record without
// re-categorizing — after CheckResultRecord has vouched for them, and
// returns the record's category set so the caller can index it. The read
// cache may retain data (when it holds the key): the caller must not
// reuse it.
func (s *Store) PutResultBytesCtx(ctx context.Context, id TraceID, fp string, data []byte) (category.Set, error) {
	rec, set, err := CheckResultRecord(data)
	if err != nil {
		return 0, err
	}
	return set, s.putRecords(ctx, "result", record{kind: kindServed, key: resultKeyOf(id, fp), value: rec})
}

// readResult fetches the served record under key, via the LRU cache; a
// legacy value is converted before it is cached, so the conversion is
// paid once per residency.
func (s *Store) readResult(key string, l loc) (rec []byte, cached bool, err error) {
	if v, ok := s.cache.get(key); ok {
		return v, true, nil
	}
	raw, err := s.pread(nil, key, l)
	if err != nil {
		return nil, false, err
	}
	if rec, err = servedRecord(l.kind, raw); err != nil {
		return nil, false, fmt.Errorf("%w (key %q)", err, key)
	}
	s.cache.put(key, rec)
	return rec, false, nil
}

// lookupResult is the read under every Get of a result: index lookup,
// then readResult.
func (s *Store) lookupResult(id TraceID, fp string) (rec []byte, cached, ok bool, err error) {
	key := resultKeyOf(id, fp)
	s.mu.RLock()
	l, ok := s.index[key]
	s.mu.RUnlock()
	if !ok {
		return nil, false, false, nil
	}
	rec, cached, err = s.readResult(key, l)
	return rec, cached, err == nil, err
}

// GetResultBytes returns the stored record of (trace, fingerprint) in
// served form without decoding it — the replication read path, where the
// bytes go straight back onto the wire. No hit/miss accounting.
func (s *Store) GetResultBytes(id TraceID, fp string) ([]byte, bool, error) {
	rec, _, ok, err := s.lookupResult(id, fp)
	return rec, ok, err
}

// ResultBody returns the response body of (trace, fingerprint) — the
// bytes GET /v1/results/{id} sends — and whether the read cache had it.
// Hits and misses feed Stats, the basis of the serving layer's cache
// hit-rate metrics. The slice is shared with the cache: read-only.
func (s *Store) ResultBody(id TraceID, fp string) (body []byte, cached, ok bool, err error) {
	rec, cached, ok, err := s.lookupResult(id, fp)
	switch {
	case err != nil:
		return nil, false, false, err
	case !ok:
		s.misses.Add(1)
		return nil, false, false, nil
	}
	s.hits.Add(1)
	return rec[ResultHeadLen:], cached, true, nil
}

// GetResult returns the stored categorization of (trace, fingerprint),
// reporting found-ness: ResultBody, decoded.
func (s *Store) GetResult(id TraceID, fp string) (*core.Result, bool, error) {
	body, _, ok, err := s.ResultBody(id, fp)
	if !ok || err != nil {
		return nil, false, err
	}
	res, err := decodeResult(body)
	if err != nil {
		return nil, false, err
	}
	return res, true, nil
}

// HasResult reports whether a result is stored without reading it (no
// hit/miss accounting).
func (s *Store) HasResult(id TraceID, fp string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[resultKeyOf(id, fp)]
	return ok
}

// decodeResult parses a result document — a served body or the legacy
// compact form, the same JSON either way — and rehydrates the fields
// that do not survive JSON (the category set and the temporal kind are
// serialized as strings).
func decodeResult(data []byte) (*core.Result, error) {
	var res core.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("store: decoding result: %w", err)
	}
	res.Categories = category.Of(res.Labels)
	res.Read.Temporal = temporalKindOf(res.Read.TemporalS)
	res.Write.Temporal = temporalKindOf(res.Write.TemporalS)
	return &res, nil
}

// temporalKindOf is the inverse of category.TemporalKind.String.
func temporalKindOf(s string) category.TemporalKind {
	for _, k := range category.TemporalKinds() {
		if k.String() == s {
			return k
		}
	}
	return category.Insignificant
}

// EachResult calls fn for every stored result under the given config
// fingerprint, in lexicographic trace-ID order (deterministic, so
// index rebuilds are reproducible). fn returning false stops early.
func (s *Store) EachResult(fp string, fn func(TraceID, *core.Result) bool) error {
	suffix := "/" + fp
	s.mu.RLock()
	keys := make([]string, 0, s.results)
	for k := range s.index {
		if strings.HasPrefix(k, "r/") && strings.HasSuffix(k, suffix) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	for _, key := range keys {
		s.mu.RLock()
		l, ok := s.index[key]
		s.mu.RUnlock()
		if !ok {
			continue
		}
		rec, _, err := s.readResult(key, l)
		if err != nil {
			return err
		}
		res, err := decodeResult(rec[ResultHeadLen:])
		if err != nil {
			return err
		}
		id := TraceID(strings.TrimSuffix(strings.TrimPrefix(key, "r/"), suffix))
		if !fn(id, res) {
			return nil
		}
	}
	return nil
}

// EachResultMask streams the trace ID and category set of every live
// result under the given config fingerprint, in log order (NOT sorted —
// the caller orders): the index-rebuild path, one sequential pass
// (eachLive) that reads a served record's eight-byte head and parses
// nothing; only a legacy record is decoded, for its labels. id aliases
// the scan buffer — fn must copy it before returning. fn returning false
// stops early.
func (s *Store) EachResultMask(fp string, fn func(id []byte, set category.Set) bool) error {
	suffix := "/" + fp
	var recErr error
	err := s.eachLive("r/", func(kind byte, key, value []byte) bool {
		if len(key) < len("r/")+len(suffix) || string(key[len(key)-len(suffix):]) != suffix {
			return true
		}
		set, err := recordSet(kind, value)
		if err != nil {
			recErr = fmt.Errorf("%w (key %q)", err, key)
			return false
		}
		return fn(key[len("r/"):len(key)-len(suffix)], set)
	})
	if err != nil {
		return err
	}
	return recErr
}
