package tile

import (
	"time"

	"forecache/internal/memo"
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

// EncodedCacheStats is a point-in-time snapshot of an EncodedCache.
// Hits counts requests served from a cached payload or joined onto an
// in-flight encode; Misses counts encodes actually performed, so
// Misses is exactly the number of times an encoder ran. Cost (which charges
// encEntryOverhead per entry) and Budget are bytes.
type EncodedCacheStats = memo.Stats

// EncodedCache memoizes encoded tile payloads per (coord, format,
// compression) under a byte-budgeted LRU, so an immutable tile is encoded
// once and served N times as a cached []byte — across the /tile pull path
// and every push stream. Concurrent first requests for one key coalesce
// into a single encode. Safe for concurrent use.
type EncodedCache struct {
	payloads *memo.Cache[encKey, []byte]
	onEncode func(time.Duration) // observability hook, called per performed encode
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
		payloads: memo.New[encKey](budget, func(payload []byte) int64 {
			return int64(len(payload)) + encEntryOverhead
		}),
		onEncode: onEncode,
	}
}

// Get returns the cached payload for (c, format, gzipped), running encode
// to produce it on a miss. The returned slice is shared and must not be
// mutated. Encode errors are returned to every coalesced waiter and
// nothing is cached, so a transient failure doesn't poison the key.
func (ec *EncodedCache) Get(c Coord, format Format, gzipped bool, encode func() ([]byte, error)) ([]byte, error) {
	payload, _, err := ec.payloads.Get(encKey{coord: c, format: format, gzip: gzipped}, func() ([]byte, error) {
		start := time.Now()
		payload, err := encode()
		if err == nil && ec.onEncode != nil {
			ec.onEncode(time.Since(start))
		}
		return payload, err
	})
	return payload, err
}

// Stats snapshots the cache counters.
func (ec *EncodedCache) Stats() EncodedCacheStats { return ec.payloads.Stats() }
