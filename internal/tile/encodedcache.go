package tile

import (
	"container/list"
	"sync"
	"time"
)

// Format names a tile wire encoding in the encoded-payload cache key.
type Format uint8

const (
	FormatJSON Format = iota
	FormatBinary
)

func (f Format) String() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatBinary:
		return "binary"
	default:
		return "unknown"
	}
}

// DefaultEncodedCacheBudget is the byte budget an EncodedCache falls back
// to when constructed with a non-positive budget.
const DefaultEncodedCacheBudget = 64 << 20

// encEntryOverhead approximates the bookkeeping cost per cached payload
// (entry struct, list element, index map entry) charged against the budget
// on top of the payload bytes.
const encEntryOverhead = 128

type encKey struct {
	coord  Coord
	format Format
	gzip   bool
}

type encEntry struct {
	key     encKey
	payload []byte
}

// encCall is one in-flight encode; concurrent requests for the same key
// wait on it instead of encoding again (single-flight).
type encCall struct {
	wg      sync.WaitGroup
	payload []byte
	err     error
}

// EncodedCacheStats is a point-in-time snapshot of an EncodedCache.
// Hits counts requests served from a cached payload or joined onto an
// in-flight encode; Misses counts encodes actually performed, so
// Misses is exactly the number of times an encoder ran.
type EncodedCacheStats struct {
	Hits    int64
	Misses  int64
	Evicted int64
	Entries int
	Bytes   int64
	Budget  int64
}

// EncodedCache memoizes encoded tile payloads per (coord, format,
// compression) under a byte-budgeted LRU, so an immutable tile is encoded
// once and served N times as a cached []byte — across the /tile pull path
// and every push stream. Concurrent first requests for one key coalesce
// into a single encode. Safe for concurrent use.
type EncodedCache struct {
	budget   int64
	onEncode func(time.Duration) // observability hook, called per performed encode

	mu       sync.Mutex
	lru      *list.List // *encEntry, most recently used at the front
	idx      map[encKey]*list.Element
	inflight map[encKey]*encCall
	bytes    int64
	hits     int64
	misses   int64
	evicted  int64
}

// NewEncodedCache returns a cache bounded to budget bytes of payload
// (DefaultEncodedCacheBudget when budget <= 0). onEncode, when non-nil,
// receives the wall time of every encode the cache performs — the facade
// wires it to the observability pipeline's encode-duration histogram.
func NewEncodedCache(budget int64, onEncode func(time.Duration)) *EncodedCache {
	if budget <= 0 {
		budget = DefaultEncodedCacheBudget
	}
	return &EncodedCache{
		budget:   budget,
		onEncode: onEncode,
		lru:      list.New(),
		idx:      make(map[encKey]*list.Element),
		inflight: make(map[encKey]*encCall),
	}
}

// Get returns the cached payload for (c, format, gzipped), running encode
// to produce it on a miss. The returned slice is shared and must not be
// mutated. Encode errors are returned to every coalesced waiter and
// nothing is cached, so a transient failure doesn't poison the key.
func (ec *EncodedCache) Get(c Coord, format Format, gzipped bool, encode func() ([]byte, error)) ([]byte, error) {
	key := encKey{coord: c, format: format, gzip: gzipped}
	ec.mu.Lock()
	if el, ok := ec.idx[key]; ok {
		ec.lru.MoveToFront(el)
		ec.hits++
		payload := el.Value.(*encEntry).payload
		ec.mu.Unlock()
		return payload, nil
	}
	if call, ok := ec.inflight[key]; ok {
		ec.hits++
		ec.mu.Unlock()
		call.wg.Wait()
		return call.payload, call.err
	}
	call := &encCall{}
	call.wg.Add(1)
	ec.inflight[key] = call
	ec.misses++
	ec.mu.Unlock()

	start := time.Now()
	payload, err := encode()
	if err == nil && ec.onEncode != nil {
		ec.onEncode(time.Since(start))
	}
	call.payload, call.err = payload, err

	ec.mu.Lock()
	delete(ec.inflight, key)
	if err == nil {
		el := ec.lru.PushFront(&encEntry{key: key, payload: payload})
		ec.idx[key] = el
		ec.bytes += entryBytes(payload)
		// Keep at least the entry just inserted, even when it alone blows
		// the budget — serving it is the point.
		for ec.bytes > ec.budget && ec.lru.Len() > 1 {
			oldest := ec.lru.Back()
			victim := oldest.Value.(*encEntry)
			ec.lru.Remove(oldest)
			delete(ec.idx, victim.key)
			ec.bytes -= entryBytes(victim.payload)
			ec.evicted++
		}
	}
	ec.mu.Unlock()
	call.wg.Done()
	return payload, err
}

// Stats snapshots the cache counters.
func (ec *EncodedCache) Stats() EncodedCacheStats {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return EncodedCacheStats{
		Hits:    ec.hits,
		Misses:  ec.misses,
		Evicted: ec.evicted,
		Entries: ec.lru.Len(),
		Bytes:   ec.bytes,
		Budget:  ec.budget,
	}
}

func entryBytes(payload []byte) int64 {
	return int64(len(payload)) + encEntryOverhead
}
