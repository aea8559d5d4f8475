package prefetch

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"testing"

	"forecache/internal/backend"
	"forecache/internal/tile"
)

// nullStore is a contention-free backend for fleet benchmarks: no shared
// lock, no recorded order — so the measured scaling is the scheduler
// tier's, not the fixture's.
type nullStore struct{ fetches atomic.Int64 }

func (n *nullStore) FetchQuiet(c tile.Coord) (*tile.Tile, error) {
	n.fetches.Add(1)
	return &tile.Tile{Coord: c, Size: 1}, nil
}
func (n *nullStore) Fetch(c tile.Coord) (*tile.Tile, error) { return n.FetchQuiet(c) }
func (n *nullStore) Latency() backend.LatencyModel          { return backend.LatencyModel{} }
func (n *nullStore) Pyramid() *tile.Pyramid                 { return nil }

// mutexWaitSeconds reads the process-wide total time goroutines have
// spent blocked on sync.Mutex/RWMutex acquisition.
func mutexWaitSeconds() float64 {
	s := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// BenchmarkFleetSubmitDrain is the sharding proof benchmark: a
// 1024-session fleet submits 8-entry batches from every CPU at once, then
// the pipeline drains. Total fetch concurrency is held fixed (8 workers
// deployment-wide, so 4 shards run 2 workers each) — the only thing the
// shard axis changes is how many locks the submit path and worker pops
// are spread over. ns/op is one full fleet round (1024 submits + drain);
// mutex-wait-ms/op is the process-wide mutex contention each round added.
func BenchmarkFleetSubmitDrain(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchFleet(b, shards)
		})
	}
}

func benchFleet(b *testing.B, shards int) {
	store := &nullStore{}
	p := NewScheduler(store, Config{Shards: shards, Workers: 8, QueuePerSession: 16})
	defer p.Close()

	const fleet = 1024
	const batch = 8
	ids := make([]string, fleet)
	batches := make([][]Request, fleet)
	for i := range ids {
		ids[i] = fmt.Sprintf("fleet-user-%d", i)
		reqs := make([]Request, batch)
		for j := range reqs {
			// Distinct coords per session: no coalescing, every entry is a
			// real queue insert + worker pop + fetch.
			reqs[j] = Request{Coord: tile.Coord{Level: 9, Y: i, X: j}, Score: float64(batch - j)}
		}
		batches[i] = reqs
	}
	submitters := runtime.GOMAXPROCS(0)

	b.ReportAllocs()
	waitBefore := mutexWaitSeconds()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < fleet; i += submitters {
					p.Submit(ids[i], batches[i])
				}
			}(w)
		}
		wg.Wait()
		p.Drain()
	}
	b.StopTimer()
	waitMS := (mutexWaitSeconds() - waitBefore) * 1000
	b.ReportMetric(waitMS/float64(b.N), "mutex-wait-ms/op")
}
