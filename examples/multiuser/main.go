// Multiuser: several analysts browsing the same dataset through one
// middleware server over HTTP, each with an isolated session, history,
// prediction engine and cache — the deployment shape of Figure 5, grown to
// multi-user scale: every session's predictions flow through one shared
// asynchronous prefetch scheduler (ranked queues, per-session fairness,
// cross-session coalescing, utility decay with a global queue budget and
// backpressure-driven adaptive K) over one shared tile pool, so N analysts
// browsing the same region cost the DBMS far fewer than N fetches. The
// phase classifier and Markov chain are trained once at server build and
// shared by every session, so joining analysts pay no training cost.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"forecache"
	"forecache/internal/client"
	"forecache/internal/tile"
)

func main() {
	ds, err := forecache.BuildWorld(forecache.WorldConfig{Seed: 7, Size: 256, TileSize: 16})
	if err != nil {
		log.Fatal(err)
	}
	traces := ds.SimulateStudy(7)
	srv, err := ds.NewServer(traces, forecache.MiddlewareConfig{
		K:                  5,
		AsyncPrefetch:      true,             // submit-and-return prefetching
		Push:               true,             // stream completed prefetches to attached sessions (GET /stream)
		Shards:             2,                // prefetch scheduler shards (hashed on session id)
		PrefetchWorkers:    4,                // concurrent DBMS fetch budget, divided across shards
		AdaptiveK:          true,             // engines shrink K under backpressure
		FairShare:          true,             // ...the flooding session's K first
		UtilityLearning:    true,             // fit the position curve from consumption
		AdaptiveAllocation: true,             // budget share follows consumption per phase
		Hotspot:            true,             // third model: shared cross-session popularity
		MetricsEndpoint:    true,             // Prometheus text under GET /metrics
		SharedTiles:        256,              // cross-session tile pool
		MaxSessions:        64,               // LRU session cap
		SessionTTL:         30 * time.Minute, // idle sessions are evicted
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// An in-process HTTP server keeps the example self-contained; swap in
	// http.ListenAndServe(addr, srv) for a real deployment.
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fmt.Println("middleware listening at", ts.URL)

	// Three analysts explore different parts of the world concurrently.
	sessions := []struct {
		name string
		quad tile.Quadrant
	}{
		{"alice", tile.NW}, {"bob", tile.SE}, {"carol", tile.SW},
	}
	var wg sync.WaitGroup
	results := make([]string, len(sessions))
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, name string, quad tile.Quadrant) {
			defer wg.Done()
			c := client.New(ts.URL, name)
			// Attach the push stream: completed prefetches for this session
			// arrive in the client's slot buffer before they're requested.
			if err := c.Attach(); err != nil {
				log.Fatal(err)
			}
			defer c.Detach()
			meta, err := c.Meta()
			if err != nil {
				log.Fatal(err)
			}
			cur := forecache.Coord{}
			hits, total, streamed := 0, 0, 0
			req := func(next forecache.Coord) {
				_, info, err := c.Tile(next)
				if err != nil {
					log.Fatalf("%s: %v", name, err)
				}
				total++
				if info.Hit {
					hits++
				}
				if info.Streamed {
					streamed++
				}
				cur = next
			}
			req(cur)
			for cur.Level < meta.Levels-1 {
				req(cur.Child(quad))
			}
			// Pan around at the detail level, staying inside the grid.
			side := 1 << cur.Level
			for _, d := range [][2]int{{0, 1}, {1, 0}, {0, -1}, {-1, 0}} {
				next := cur.Pan(d[0], d[1])
				if next.Y >= 0 && next.X >= 0 && next.Y < side && next.X < side {
					req(next)
				}
			}
			results[i] = fmt.Sprintf("%-6s browsed %2d tiles, %2d served from cache, %2d already streamed client-side", name, total, hits, streamed)
		}(i, s.name, s.quad)
	}
	wg.Wait()
	for _, r := range results {
		fmt.Println(r)
	}
	// Each analyst's session queues its prefetches on its hashed home
	// scheduler shard; the session table and telemetry are deployment-wide.
	fmt.Printf("server tracked %d isolated sessions over %d scheduler shards\n", srv.Sessions(), srv.Scheduler().NumShards())

	// The shared scheduler worked off the response path the whole time:
	// wait for the queue to drain, then read the pipeline telemetry (the
	// same numbers /stats serves under "scheduler").
	srv.Scheduler().Drain()
	st := srv.Scheduler().Stats()
	fmt.Printf("prefetch pipeline: %d queued, %d coalesced, %d cancelled, %d completed, %d shed\n",
		st.Queued, st.Coalesced, st.Cancelled, st.Completed, st.Shed)
	fmt.Printf("mean queue latency %s across %d sessions; pressure now %.2f (peak queue %d)\n",
		st.AvgQueueLatency.Round(time.Microsecond), st.Sessions, st.Pressure, st.PeakPending)

	// Push delivery telemetry: the same numbers ride /stats ("push") and
	// /metrics (forecache_push_*).
	ps := srv.Push().Stats()
	fmt.Printf("push streams: %d opened, %d tiles pushed, %d consumed from slot buffers, %d dropped\n",
		ps.Opened, ps.Pushed, ps.Consumed, ps.Dropped)

	// The closed loop at work: the scheduler's position-utility curve was
	// fit online from what the analysts actually consumed, and the same
	// numbers (plus per-session backpressure and cache hit rates) are
	// scrapeable as Prometheus text from /metrics.
	fmt.Printf("utility curve (fit from %d cache outcomes):", st.UtilityObservations)
	for pos, f := range st.UtilityCurve {
		fmt.Printf(" p%d=%.2f", pos, f)
	}
	fmt.Println()

	// The same outcomes also drive the adaptive allocation policy — here a
	// genuinely 3-way split: the registry's prior table (the paper's
	// §5.4.3 extended with the hotspot column) is the prior, and each
	// phase's split drifts across the Markov, signature and cross-session
	// hotspot models toward whichever one's prefetches the analysts
	// actually consumed (scrapeable as
	// forecache_allocation_share{phase,model}).
	if resp, err := ts.Client().Get(ts.URL + "/stats"); err == nil {
		var stats struct {
			Allocation map[string]map[string]float64 `json:"allocation"`
		}
		if json.NewDecoder(resp.Body).Decode(&stats) == nil && len(stats.Allocation) > 0 {
			phases := make([]string, 0, len(stats.Allocation))
			for ph := range stats.Allocation {
				phases = append(phases, ph)
			}
			sort.Strings(phases)
			fmt.Println("allocation shares (prior = the paper's static table):")
			for _, ph := range phases {
				models := make([]string, 0, len(stats.Allocation[ph]))
				for m := range stats.Allocation[ph] {
					models = append(models, m)
				}
				sort.Strings(models)
				fmt.Printf("  %-12s", ph)
				for _, m := range models {
					fmt.Printf(" %s=%.2f", m, stats.Allocation[ph][m])
				}
				fmt.Println()
			}
		}
		resp.Body.Close()
	}
	if resp, err := ts.Client().Get(ts.URL + "/metrics"); err == nil {
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		shown := 0
		for sc.Scan() && shown < 3 {
			line := sc.Text()
			if strings.HasPrefix(line, "forecache_cache_hit") {
				fmt.Println("metrics sample:", line)
				shown++
			}
		}
	}
}
