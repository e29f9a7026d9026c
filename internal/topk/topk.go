// Package topk implements bounded top-k selection with deterministic
// tie-breaking.
//
// It backs every argtopk operator in the paper: the final prediction list
// (Algorithm 1, line 2 and Algorithm 2, line 20), the k_local neighbour
// sampling (Algorithm 2, line 11), and the visit-count ranking of the
// random-walk comparator. Ordering is by score descending, ties broken by
// ascending identifier, so results never depend on insertion order.
package topk

// Item is a scored candidate.
type Item struct {
	ID    uint32
	Score float64
}

// less reports whether a ranks strictly below b in the top-k order
// (lower score, or equal score with a higher ID).
func less(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// Collector keeps the k best items seen so far using a bounded min-heap.
// The zero value is unusable; construct with New. A Collector is not safe
// for concurrent use.
type Collector struct {
	k    int
	heap []Item // min-heap: heap[0] is the current worst of the best
}

// New returns a Collector retaining the k highest-scored items.
// k must be positive.
func New(k int) *Collector {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	capHint := k
	if capHint > 1024 {
		capHint = 1024 // very large k: let the heap grow on demand
	}
	return &Collector{k: k, heap: make([]Item, 0, capHint)}
}

// K returns the collector's capacity.
func (c *Collector) K() int { return c.k }

// Len returns the number of items currently retained.
func (c *Collector) Len() int { return len(c.heap) }

// Push offers an item to the collector.
func (c *Collector) Push(id uint32, score float64) {
	it := Item{ID: id, Score: score}
	if len(c.heap) < c.k {
		c.heap = append(c.heap, it)
		c.up(len(c.heap) - 1)
		return
	}
	if !less(c.heap[0], it) {
		return // not better than the current worst
	}
	c.heap[0] = it
	down(c.heap, 0)
}

// Result returns the retained items ordered best-first and resets nothing:
// the collector can keep receiving items afterwards.
func (c *Collector) Result() []Item {
	return c.AppendResult(make([]Item, 0, len(c.heap)))
}

// AppendResult appends the retained items to dst ordered best-first and
// returns the extended slice, leaving the collector unchanged. It allocates
// nothing when dst has spare capacity, which makes it the extraction path of
// the engines' per-vertex hot loops (Result allocates a fresh slice per
// call). The copy is a min-heap, heapsorted in place: each pass swaps the
// current worst to the back.
func (c *Collector) AppendResult(dst []Item) []Item {
	start := len(dst)
	dst = append(dst, c.heap...)
	h := dst[start:]
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		down(h[:end], 0)
	}
	return dst
}

// Reset empties the collector, retaining capacity.
func (c *Collector) Reset() { c.heap = c.heap[:0] }

func (c *Collector) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(c.heap[i], c.heap[parent]) {
			return
		}
		c.heap[i], c.heap[parent] = c.heap[parent], c.heap[i]
		i = parent
	}
}

// down sifts h[i] down the min-heap h.
func down(h []Item, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && less(h[l], h[smallest]) {
			smallest = l
		}
		if r < n && less(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// Select returns the k highest-scored items of items, best-first, with the
// package's deterministic tie order. items is not modified.
func Select(k int, items []Item) []Item {
	if k <= 0 || len(items) == 0 {
		return nil
	}
	c := New(k)
	for _, it := range items {
		c.Push(it.ID, it.Score)
	}
	return c.Result()
}

// Bottom returns the k lowest-scored items, worst-first (the mirror of
// Select). It backs the Γmin neighbour-selection policy of Section 5.6.
func Bottom(k int, items []Item) []Item {
	if k <= 0 || len(items) == 0 {
		return nil
	}
	neg := make([]Item, len(items))
	for i, it := range items {
		neg[i] = Item{ID: it.ID, Score: -it.Score}
	}
	out := Select(k, neg)
	for i := range out {
		out[i].Score = -out[i].Score
	}
	return out
}
