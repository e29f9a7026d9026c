package serve

import (
	"container/list"
	"sync"

	"snaple/internal/core"
	"snaple/internal/graph"
)

// lruCache is a mutex-guarded LRU over per-vertex prediction lists, keyed by
// the queried vertex: a server runs one Config for its whole life, so the
// vertex alone names a row. Empty results are cached too (as non-nil empty
// slices): "this user has no recommendations" is just as expensive to
// recompute as a full answer.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent
	items map[graph.VertexID]*list.Element
}

type lruEntry struct {
	key   graph.VertexID
	preds []core.Prediction
}

func newLRU(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[graph.VertexID]*list.Element, capacity),
	}
}

// get returns the cached predictions for key and whether they were present,
// marking the entry most-recently-used.
func (c *lruCache) get(key graph.VertexID) ([]core.Prediction, bool) {
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
func (c *lruCache) put(key graph.VertexID, preds []core.Prediction) {
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

// invalidate removes the entry of every vertex in dirty and returns how
// many were dropped. It runs under the caller's mutation lock as well as the
// cache's, so it walks whichever side is smaller: a key lookup per dirty
// vertex when the mutation frontier is smaller than the cache, one sweep of
// the cache with a membership probe per entry otherwise.
func (c *lruCache) invalidate(dirty *core.VertexSet) int {
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
			if el, ok := c.items[v]; ok {
				drop(el)
			}
		}
		return dropped
	}
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if dirty.Contains(el.Value.(*lruEntry).key) {
			drop(el)
		}
		el = next
	}
	return dropped
}
