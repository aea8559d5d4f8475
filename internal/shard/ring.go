// Package shard is the serving tier's session router: it maps a session id
// to one of N independent shards, and every layer that splits per-session
// state (the server's session tables, the prefetch pipeline's per-shard
// schedulers) routes through the same Ring so a session's HTTP requests,
// scheduler queue and eviction bookkeeping all live on one shard. Sessions
// are independent behind the engine factory, so sharding the tier is a
// pure routing concern — this package owns that concern and nothing else.
//
// Routing is mix(FNV-1a(key)) % N. The shard count is fixed for a
// process's life and no session outlives the process, so nothing is ever
// re-homed and a consistent-hash ring's "few keys move when N changes"
// would buy nothing. The mapping is a pure function of (key, N): the same
// id always lands on the same shard, with no dependency on map iteration
// order, process start time or previous lookups.
package shard

// Ring routes keys to shards. Construct with NewRing; a Ring is immutable
// and safe for concurrent use without synchronization.
type Ring struct {
	n int
}

// NewRing builds a router over n shards (n < 1 is treated as 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{n: n}
}

// Shards returns the number of shards the ring routes over.
func (r *Ring) Shards() int { return r.n }

// Locate returns the shard that owns key, always in [0, Shards()). Any
// string is a valid key — empty, unicode, control bytes — and the answer
// is stable: equal keys always land on the same shard.
func (r *Ring) Locate(key string) int {
	if r.n == 1 {
		return 0
	}
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211 // FNV-1a 64 prime
	}
	return int(mix(h) % uint64(r.n))
}

// mix is a 64-bit finalizer (MurmurHash3's fmix64). FNV-1a alone has weak
// avalanche for short, similar inputs — exactly what sequential session
// ids are — which would unbalance the shards. The finalizer diffuses every
// input bit across the whole word.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
