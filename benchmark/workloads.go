package main

import (
	"time"

	"forecache"
)

// benchLatency is the latency model every deployment is built with. It is
// always set explicitly (a zero LatencyModel silently becomes the paper's
// 984 ms), and Hit and Miss differ so the counting clock can tell a
// SharedPool hit (Sleep(Hit)) from a DBMS round trip (Sleep(Miss)).
var benchLatency = forecache.LatencyModel{Hit: time.Millisecond, Miss: 25 * time.Millisecond}

// Which request schedule a workload replays.
const (
	scheduleStudy = "study" // held-out simulated users, SimulateStudy(seed+1000)
	scheduleWalk  = "walk"  // seeded uniform random walks
)

// workload is one deployment shape plus the traffic replayed against it.
// All four live in this one table so an issue that collapses config fields
// edits a few lines here and nothing else.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (also in BENCHMARK.json).
	Why string
	// Config is the deployment; Latency, Clock and StateDir are filled in at
	// set-up (see deployment.config).
	Config forecache.MiddlewareConfig
	// Schedule names the request schedule; Slots is the number of
	// concurrent sessions, split evenly over the two workers.
	Schedule string
	Slots    int
	// SessionEvery > 0 starts a new session id every that many requests
	// even mid-trace (a fresh session accepts any first coordinate).
	SessionEvery int
	// StatsEvery > 0 issues one GET /stats per that many tile requests.
	StatsEvery int
	// Attach opens the session's /stream before its first request.
	Attach bool
	// Binary negotiates the binary codec plus gzip on every request.
	Binary bool
	// RealSleep makes the benchmark clock really sleep Miss on a DBMS
	// round trip; otherwise sleeps are only counted.
	RealSleep bool
	// Persist gives the deployment a StateDir (under the output directory)
	// with a 1 s snapshot interval.
	Persist bool
	// TracedRequests is the fixed request count of the traced run.
	TracedRequests int
}

var workloads = []workload{
	{
		Name: "paper_pull",
		Why:  "The paper's Figure 5 deployment, CPU-bound: recommend, phase, core allocation, inline backend fetches, cache fill and the 16 KB JSON marshal do all the work.",
		Config: forecache.MiddlewareConfig{
			MaxSessions: 64,
		},
		Schedule:       scheduleStudy,
		Slots:          8,
		TracedRequests: 6000,
	},
	{
		Name: "fleet_async_binary",
		Why:  "Production shape under session churn: shard routing, session create/evict, prefetch submit/dispatch/coalesce, the feedback loops and encoded-cache hits do the work.",
		Config: forecache.MiddlewareConfig{
			AsyncPrefetch:      true,
			Shards:             2,
			PrefetchWorkers:    4,
			SharedTiles:        256,
			BinaryTiles:        true,
			AdaptiveK:          true,
			FairShare:          true,
			UtilityLearning:    true,
			AdaptiveAllocation: true,
			Hotspot:            true,
			MaxSessions:        128,
		},
		Schedule:       scheduleStudy,
		Slots:          64,
		Binary:         true,
		TracedRequests: 6000,
	},
	{
		Name: "slow_backend_push",
		Why:  "What the paper and Khameleon measure: a demand miss costs 25 ms, so mean latency is the miss share and the pushed-ahead share is the user-visible win; push frames take the CPU.",
		Config: forecache.MiddlewareConfig{
			AsyncPrefetch: true,
			Push:          true,
			BinaryTiles:   true,
			Shards:        2,
			// Not in the issue's table: without a cap every retired
			// generation's engine stays live and the heap grows with run
			// length instead of with the deployment.
			MaxSessions: 64,
		},
		Schedule:       scheduleStudy,
		Slots:          8,
		Attach:         true,
		Binary:         true,
		RealSleep:      true,
		TracedRequests: 1500,
	},
	{
		Name: "cold_churn",
		Why:  "The same layers used the other way round: cache evict-unconsumed, session create/evict, encoded-cache miss/evict, models on unseen random walks, snapshots and /stats beside serving.",
		Config: forecache.MiddlewareConfig{
			AsyncPrefetch:      true,
			Shards:             2,
			PrefetchWorkers:    4,
			SharedTiles:        64,
			BinaryTiles:        true,
			EncodedCacheBudget: 1 << 20,
			AdaptiveK:          true,
			FairShare:          true,
			UtilityLearning:    true,
			AdaptiveAllocation: true,
			Hotspot:            true,
			MaxSessions:        32,
			SnapshotInterval:   time.Second,
		},
		Schedule:       scheduleWalk,
		Slots:          16,
		SessionEvery:   8,
		StatsEvery:     200,
		Binary:         true,
		Persist:        true,
		TracedRequests: 6000,
	},
}

// tracedCount is the traced run's request count at the given scale (1
// outside the smoke run), never less than two turns of every slot.
func (w workload) tracedCount(scale float64) int {
	return max(2*w.Slots, int(float64(w.TracedRequests)*scale))
}

// connLimit is the most connections the server may see carrying a request
// at once. The loop has one request in flight per worker, but the server
// marks a connection idle only after the client may already have read the
// whole response and sent its next request on another connection (the
// client abandons a connection whose JSON body it did not drain to EOF), so
// each worker can briefly hold two; attached streams come on top, again
// twice, because a session's old stream may still be winding down when its
// successor attaches.
func (w workload) connLimit() int {
	limit := 2 * workerCount
	if w.Attach {
		limit += 2 * w.Slots
	}
	return limit
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
