// Package memo is the middleware's one read-through cache: a cost-budgeted
// LRU whose loads are single-flight. The encoded-payload cache, the
// cross-session tile pool and the prefetch path's fetch coalescer are
// three typed instances of it, so eviction order, in-flight joining and
// the counters mean the same thing at every layer above the DBMS.
package memo

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of a Cache. Hits counts Gets answered
// from a resident entry or joined onto a load already in flight; Misses
// counts loads performed, failed ones included.
type Stats struct {
	Hits    int64
	Misses  int64
	Evicted int64
	Entries int
	Cost    int64
	Budget  int64
}

// entry is in the index from the moment its load starts until the load
// fails or the entry is evicted.
type entry[K comparable, V any] struct {
	key    K
	val    V
	err    error
	cost   int64
	loaded sync.WaitGroup // released once val and err are final
	el     *list.Element  // LRU position; nil while loading
}

// Cache memoizes load results per key. Safe for concurrent use.
type Cache[K comparable, V any] struct {
	budget int64
	cost   func(V) int64

	mu      sync.Mutex
	entries map[K]*entry[K, V]
	lru     *list.List // of loaded *entry[K, V], most recently used at the front
	used    int64
	hits    int64
	misses  int64
	evicted int64
}

// New returns a cache that retains values while their summed cost stays
// within budget, evicting least recently used first. A budget of 0 retains
// nothing: the cache then only coalesces concurrent loads, and cost is
// never called.
func New[K comparable, V any](budget int64, cost func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, cost: cost, entries: make(map[K]*entry[K, V]), lru: list.New()}
}

// Get returns the value for k, calling load to produce it when k is neither
// resident nor already being loaded. Concurrent Gets of one missing key
// share a single load; hit reports that this call did not run it. A load
// error reaches every caller sharing the load and nothing is retained, so
// the next Get loads again. Values are shared between callers and must not
// be mutated.
func (c *Cache[K, V]) Get(k K, load func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		c.hits++
		if e.el != nil {
			c.lru.MoveToFront(e.el)
		}
		c.mu.Unlock()
		e.loaded.Wait()
		return e.val, true, e.err
	}
	e := &entry[K, V]{key: k}
	e.loaded.Add(1)
	c.entries[k] = e
	c.misses++
	c.mu.Unlock()

	e.val, e.err = load()

	c.mu.Lock()
	if e.err != nil || c.budget <= 0 {
		delete(c.entries, k)
	} else {
		e.cost = c.cost(e.val)
		e.el = c.lru.PushFront(e)
		c.used += e.cost
		// The entry just inserted stays even when it alone exceeds the
		// budget: serving it is the point.
		for c.used > c.budget && c.lru.Len() > 1 {
			victim := c.lru.Remove(c.lru.Back()).(*entry[K, V])
			delete(c.entries, victim.key)
			c.used -= victim.cost
			c.evicted++
		}
	}
	c.mu.Unlock()
	e.loaded.Done()
	return e.val, false, e.err
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evicted: c.evicted, Entries: c.lru.Len(), Cost: c.used, Budget: c.budget}
}
