package store

import (
	"container/list"
	"sync"
)

// lru is a byte-bounded, concurrency-safe LRU cache of stored values.
// It keeps the store's memory footprint flat: the key → location
// index is always resident (small), while value bytes are cached only
// up to maxBytes and re-read from the segment log on miss.
type lru struct {
	mu       sync.Mutex
	maxBytes int64
	size     int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

type lruEntry struct {
	key string
	val []byte
}

// newLRU builds a cache bounded to maxBytes (< 0: disabled).
func newLRU(maxBytes int64) *lru {
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &lru{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the cached value and promotes it to most-recent.
func (c *lru) get(key string) ([]byte, bool) {
	if c.maxBytes == 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put admits a value read from the log as the most recently used,
// evicting least-recently-used entries until the byte bound holds.
func (c *lru) put(key string, val []byte) { c.set(key, val, true) }

// refresh gives a cached key the value just written under it and admits
// nothing: a write never serves old bytes, and never fills the cache.
func (c *lru) refresh(key string, val []byte) { c.set(key, val, false) }

// set replaces the value of a cached key, and with admit caches an
// uncached one and makes it the most recent. A value larger than the
// whole cache is not cached at all, and the key's old value goes with it.
func (c *lru) set(key string, val []byte, admit bool) {
	if c.maxBytes == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, cached := c.items[key]
	switch {
	case int64(len(val)) > c.maxBytes:
		if cached {
			c.remove(el)
		}
		return
	case cached:
		e := el.Value.(*lruEntry)
		c.size += int64(len(val)) - int64(len(e.val))
		e.val = val
		if admit {
			c.ll.MoveToFront(el)
		}
	case !admit:
		return
	default:
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
		c.size += int64(len(val))
	}
	for c.size > c.maxBytes {
		c.remove(c.ll.Back())
	}
}

// remove drops one entry.
func (c *lru) remove(el *list.Element) {
	e := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.size -= int64(len(e.val))
}

// stats returns the current item count and byte size.
func (c *lru) stats() (items int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.size
}
