package server

import (
	"container/list"
	"sync"

	"github.com/mia-rt/mia/internal/engine"
)

// warmEntry is one worker's warm analysis state for one graph fingerprint: a
// warm analyzer over the shared compiled image. The analyzer's private order
// overlay is the committed checkpoint baseline; reschedule requests permute
// it and undo afterwards. Entries are confined to the worker that built
// them, so nothing here is synchronized — the image itself is immutable and
// shared by every worker's entry for the fingerprint. An evicted entry a request still holds is just a pointer: the garbage
// collector keeps the analyzer alive until that request is done with it.
type warmEntry struct {
	hash string
	img  *engine.Image
	w    engine.Warm
}

// newWarmEntry binds a fresh warm analyzer to the shared image for exclusive
// use by one worker. No graph is cloned: the image is the worker-shared,
// immutable problem statement, and the analyzer's order overlay is the only
// per-worker mutable state.
func newWarmEntry(hash string, img *engine.Image) *warmEntry {
	return &warmEntry{hash: hash, img: img, w: eng.NewWarm(img)}
}

// warmCache is a worker-private LRU of warmEntry values keyed by graph
// fingerprint — the "one warm analyzer per worker, LRU of checkpointed
// images" pooling shape. No locking: exactly one goroutine touches it.
type warmCache struct {
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

func newWarmCache(capacity int) *warmCache {
	return &warmCache{cap: capacity, entries: make(map[string]*list.Element), order: list.New()}
}

// get returns the entry for hash, marking it most recently used.
func (c *warmCache) get(hash string) (*warmEntry, bool) {
	el, ok := c.entries[hash]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*warmEntry), true
}

// put inserts an entry, evicting the least recently used one past capacity
// (or replacing an entry with the same hash).
func (c *warmCache) put(e *warmEntry) {
	if el, ok := c.entries[e.hash]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[e.hash] = c.order.PushFront(e)
	if c.order.Len() > c.cap {
		last := c.order.Back()
		delete(c.entries, last.Value.(*warmEntry).hash)
		c.order.Remove(last)
	}
}

// imageCache is the shared fingerprint → compiled-image registry. Analyze
// populates it; reschedule-by-hash reads it when the serving worker has no
// warm entry yet (the graph bytes are not resent). Images are immutable, so
// every worker's warm entry for a fingerprint shares one image — the mutex
// only guards the map/list structure.
type imageCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used; values are imageRecord
}

type imageRecord struct {
	hash string
	img  *engine.Image
}

func newImageCache(capacity int) *imageCache {
	return &imageCache{cap: capacity, entries: make(map[string]*list.Element), order: list.New()}
}

func (c *imageCache) get(hash string) (*engine.Image, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[hash]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(imageRecord).img, true
}

// put registers img under hash and returns the canonical image for the
// fingerprint: when two requests compile the same graph concurrently, the
// first registration wins and both callers proceed on one shared image (the
// duplicate is dropped, so worker caches never hold divergent copies).
func (c *imageCache) put(hash string, img *engine.Image) *engine.Image {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[hash]; ok {
		c.order.MoveToFront(el)
		return el.Value.(imageRecord).img // same fingerprint = same analysis input
	}
	c.entries[hash] = c.order.PushFront(imageRecord{hash: hash, img: img})
	if c.order.Len() > c.cap {
		last := c.order.Back()
		delete(c.entries, last.Value.(imageRecord).hash)
		c.order.Remove(last)
	}
	return img
}

func (c *imageCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
