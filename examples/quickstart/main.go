// Quickstart: build a small synthetic satellite world, stand up the
// ForeCache middleware, browse a few tiles, and watch the prefetcher turn
// would-be DBMS round trips into cache hits.
package main

import (
	"fmt"
	"log"

	"forecache"
	"forecache/internal/tile"
)

func main() {
	// 1. Build the world: raw reflectance bands -> NDSI (the paper's Query
	//    1, computed by modis.BuildNDSI) -> zoom levels (array Regrid) ->
	//    tiles -> signatures. Deterministic for a fixed seed.
	ds, err := forecache.BuildWorld(forecache.WorldConfig{Seed: 1, Size: 256, TileSize: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world: %d zoom levels, %d tiles\n", ds.Pyramid.NumLevels(), ds.Pyramid.NumTiles())

	// 2. Train the middleware on simulated study traces (in production
	//    these would be recorded user sessions).
	traces := ds.SimulateStudy(2)
	mw, err := ds.NewMiddleware(traces, forecache.MiddlewareConfig{K: 5})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Browse: start at the overview and zoom toward the north-west,
	//    then pan around — the canonical forage -> navigate -> sensemake
	//    pattern.
	path := []forecache.Coord{
		{Level: 0, Y: 0, X: 0},
	}
	cur := path[0]
	for _, q := range []tile.Quadrant{tile.NW, tile.SW, tile.NE} {
		cur = cur.Child(q)
		path = append(path, cur)
	}
	path = append(path, cur.Pan(0, 1), cur.Pan(0, 2), cur.Pan(1, 2))

	for i, c := range path {
		resp, err := mw.Request(c)
		if err != nil {
			log.Fatal(err)
		}
		status := "MISS -> DBMS query"
		if resp.Hit {
			status = "HIT  -> served from cache"
		}
		fmt.Printf("request %d: %-8v %s (%v, phase %s)\n",
			i+1, c, status, resp.Latency, resp.Phase)
	}

	st := mw.CacheStats()
	fmt.Printf("\nsession: %d hits / %d requests (%.0f%% hit rate)\n",
		st.Hits, st.Hits+st.Misses, st.HitRate()*100)
	fmt.Println("a hit answers in ~19.5ms; a miss costs a ~984ms DBMS round trip (paper §5.5)")
}
