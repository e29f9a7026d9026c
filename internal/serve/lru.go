package serve

import (
	"container/list"
	"sync"

	"snaple/internal/core"
	"snaple/internal/graph"
)

// cacheKey identifies one cached result: the queried vertex plus a
// fingerprint of the prediction configuration that produced it. The server
// runs one fixed config today, but keying on it means a future per-request
// config override (or a config change across a snapshot reload) can never
// serve stale rows.
type cacheKey struct {
	vertex graph.VertexID
	cfg    uint64
}

// lruCache is a mutex-guarded LRU over per-vertex prediction lists. Empty
// results are cached too (as non-nil empty slices): "this user has no
// recommendations" is just as expensive to recompute as a full answer.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent
	items map[cacheKey]*list.Element
}

type lruEntry struct {
	key   cacheKey
	preds []core.Prediction
}

func newLRU(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[cacheKey]*list.Element, capacity),
	}
}

// get returns the cached predictions for key and whether they were present,
// marking the entry most-recently-used.
func (c *lruCache) get(key cacheKey) ([]core.Prediction, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).preds, true
}

// put inserts (or refreshes) key, evicting the least-recently-used entry
// when over capacity.
func (c *lruCache) put(key cacheKey, preds []core.Prediction) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).preds = preds
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, preds: preds})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*lruEntry).key)
	}
}

// len returns the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// invalidate removes the cfg-keyed entries of every vertex in dirty and
// returns how many were dropped. It runs under the caller's mutation lock
// as well as the cache's, so it walks whichever side is smaller: a key
// lookup per dirty vertex when the mutation frontier is smaller than the
// cache, one sweep of the cache with a membership probe per entry otherwise.
func (c *lruCache) invalidate(cfg uint64, dirty *core.VertexSet) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	drop := func(el *list.Element) {
		c.order.Remove(el)
		delete(c.items, el.Value.(*lruEntry).key)
		dropped++
	}
	if dirty.Len() < len(c.items) {
		for _, v := range dirty.Members() {
			if el, ok := c.items[cacheKey{vertex: v, cfg: cfg}]; ok {
				drop(el)
			}
		}
		return dropped
	}
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if key := el.Value.(*lruEntry).key; key.cfg == cfg && dirty.Contains(key.vertex) {
			drop(el)
		}
		el = next
	}
	return dropped
}
